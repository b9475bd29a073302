"""Weighted-homogeneous Hermitian polynomials P(z') on C^(n-1).

Fixing positive integer exponents (m_1, ..., m_{n-1}), the weight of a
multi-index K is wt(K) = sum k_j / (2 m_j).  Admissible tables carry only
pairs (K, L) with wt(K) = wt(L) = 1/2, which makes P homogeneous of
degree one under the anisotropic dilation

    delta_t(z') = (t^{1/(2 m_1)} z_1, ..., t^{1/(2 m_{n-1})} z_{n-1}).

Weights are exact rationals: admissibility is decided by Fraction
arithmetic, never by floating-point comparison.  Everything the package
knows about P's size comes from one solve on the unit-diagonal scaling of
the table's Gram matrix, in :meth:`WeightedPolynomial.power_floor`: the
floor P >= sum_j mu_j |z_j|^{2 m_j} it returns proves P > 0 off the
origin and bounds a domain's radius, and a table it cannot certify is
refused with :class:`PositivityError`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence, Tuple

import numpy as np

from .errors import AdmissibilityError, PositivityError
from .hermpoly import HermitianPolynomial

HALF = Fraction(1, 2)
# smallest eigenvalue of a certified unit-diagonal Gram matrix, relative
# to its largest; the eigenvalue solve is backward stable, so its error is a
# small multiple of 1e-16 of that scale, and a matrix cleared by this margin
# is positive definite in exact arithmetic, not just up to rounding
GRAM_MARGIN = 1e-10


@dataclass(frozen=True)
class MultiWeight:
    """The exponent tuple (m_1, ..., m_{n-1}) of a weight system on C^{n-1}."""

    m: Tuple[int, ...]

    def __post_init__(self):
        if len(self.m) < 1:
            raise AdmissibilityError("need at least one weight exponent")
        if any((not float(mj).is_integer()) or mj < 1 for mj in self.m):
            raise AdmissibilityError(f"weight exponents must be integers >= 1, got {self.m}")
        object.__setattr__(self, "m", tuple(int(mj) for mj in self.m))

    @property
    def n(self) -> int:
        """Ambient complex dimension (slice variables plus the last coordinate)."""
        return len(self.m) + 1

    def weight(self, K: Sequence[int]) -> Fraction:
        """Exact weight sum k_j / (2 m_j) of a multi-index."""
        if len(K) != len(self.m):
            raise AdmissibilityError(
                f"multi-index length {len(K)} does not match weight count {len(self.m)}")
        if any(k < 0 or not float(k).is_integer() for k in K):
            raise AdmissibilityError(f"multi-index entries must be integers >= 0, got {tuple(K)}")
        return sum(Fraction(int(k), 2 * mj) for k, mj in zip(K, self.m))

    def dilate(self, t, zp: np.ndarray) -> np.ndarray:
        """delta_t(z'), componentwise z_j t^{1/(2 m_j)}, for one t or one t per
        point (shape (N,) against z' of shape (N, n-1)).  A single t takes
        Python's float power, whose last bits numpy's array power may miss."""
        if not np.all(np.asarray(t) > 0):
            raise ValueError(f"dilation parameter must be positive, got {t}")
        if np.ndim(t) == 0:
            factors = np.array([t ** (1.0 / (2 * mj)) for mj in self.m])
        else:
            factors = np.asarray(t, dtype=float)[:, None] ** (1.0 / (2 * np.array(self.m)))
        return np.asarray(zp, dtype=np.complex128) * factors


class WeightedPolynomial:
    """Admissible Hermitian table over C^{n-1} with exact weight bookkeeping."""

    def __init__(self, weights: MultiWeight, terms: Mapping[tuple, complex]):
        self.weights = weights
        d = len(weights.m)
        checked = {}
        seen_pairs = set()
        for (K, L), coeff in terms.items():
            K = tuple(int(k) for k in K)
            L = tuple(int(k) for k in L)
            if weights.weight(K) != HALF or weights.weight(L) != HALF:
                raise AdmissibilityError(
                    f"term ({K},{L}) has weights ({weights.weight(K)},{weights.weight(L)}), "
                    "both must equal 1/2")
            pair = (K, L) if K <= L else (L, K)
            if pair in seen_pairs:
                raise AdmissibilityError(
                    f"unordered pair {pair} supplied more than once; list each pair once")
            seen_pairs.add(pair)
            checked[(K, L)] = complex(coeff)
        self.table = HermitianPolynomial(d, checked)

    # -- ingestion format -------------------------------------------------------

    @classmethod
    def from_dict(cls, data: Mapping) -> "WeightedPolynomial":
        """Parse {"n": int, "m": [...], "terms": [{"K","L","re","im"}...]}."""
        mw = MultiWeight(tuple(data["m"]))
        if int(data["n"]) != mw.n:
            raise AdmissibilityError(
                f"declared dimension n={data['n']} does not match len(m)+1={mw.n}")
        terms = {}
        for t in data["terms"]:
            key = (tuple(int(k) for k in t["K"]), tuple(int(k) for k in t["L"]))
            if key in terms:
                raise AdmissibilityError(f"duplicate term for pair {key}")
            terms[key] = complex(float(t.get("re", 0.0)), float(t.get("im", 0.0)))
        return cls(mw, terms)

    @classmethod
    def from_json(cls, text: str) -> "WeightedPolynomial":
        return cls.from_dict(json.loads(text))

    @classmethod
    def load(cls, path) -> "WeightedPolynomial":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))

    def to_dict(self) -> dict:
        terms = [
            {"K": list(a), "L": list(b), "re": c.real, "im": c.imag}
            for (a, b), c in sorted(self.table.canonical.items())
        ]
        return {"n": self.weights.n, "m": list(self.weights.m), "terms": terms}

    # -- evaluation -------------------------------------------------------------

    def eval(self, zp: np.ndarray) -> np.ndarray:
        """Real value P(z') at points of shape (..., n-1).

        The discarded imaginary part of the Hermitian sum is zero up to
        rounding because conjugate partners are materialized pairwise.
        """
        return self.table.value(zp)

    def coefficient_scale(self, zp: np.ndarray) -> np.ndarray:
        """1 + sum |a_KL| |z'|^{|K|+|L|}, the natural error scale of eval."""
        zp = np.asarray(zp, dtype=np.complex128)
        r = np.linalg.norm(np.atleast_2d(zp), axis=-1)
        scale = np.ones_like(r)
        for (a, b), c in self.table.canonical.items():
            mult = 1.0 if a == b else 2.0
            scale = scale + mult * abs(c) * r ** (sum(a) + sum(b))
        return scale.reshape(np.shape(zp)[:-1])

    def lifted_terms(self) -> dict:
        """The table's terms in all n variables, constant in z_n."""
        return {(K + (0,), L + (0,)): c for (K, L), c in self.table.canonical.items()}

    def power_floor(self) -> np.ndarray:
        """mu > 0 with P(z') >= sum_j mu_j |z_j|^{2 m_j}; its existence proves
        P > 0 off the origin, and a table without one raises
        :class:`PositivityError`.

        Let w be the weight-1/2 monomials z^K of the table, sorted, and G the
        Hermitian G[K, L] = c_KL, so P = w* G w; G is unique, since distinct
        (K, L) give distinct monomials z^K conj(z^L).  With Delta = diag(G)
        and S = Delta^{-1/2} G Delta^{-1/2}, P = v* S v for v = Delta^{1/2} w,
        so P >= lambda_min(S) sum_K G[K, K] |w_K|^2; keeping only the pure
        powers z_j^{m_j} = w_{K_j} gives mu_j = lambda_min(S) G[K_j, K_j].
        lambda_min(S) is lowered by len(S) eps lambda_max(S), the scale of the
        eigenvalue solve's backward error.  On pure-power tables S = I, and
        mu_j is the coefficient of |z_j|^{2 m_j} up to that lowering.

        The table is refused when w misses a pure power, when some G[K, K]
        <= 0, when some off-diagonal |S[K, L]| >= 1, or when lambda_min(S) <=
        GRAM_MARGIN lambda_max(S) (singular up to rounding).  S is within a
        factor len(S) of the best-conditioned diagonal scaling of G (van der
        Sluis), so the verdict does not hang on how the coefficients are
        scaled.  A positive Hermitian form need not be a Hermitian sum of
        squares, so a positive P can still have an indefinite G and be
        refused.
        """
        monomials = sorted({K for pair in self.table.canonical for K in pair})
        index = {K: i for i, K in enumerate(monomials)}
        G = np.zeros((len(monomials), len(monomials)), dtype=np.complex128)
        for (K, L), c in self.table.canonical.items():
            G[index[K], index[L]] = c
            G[index[L], index[K]] = np.conj(c)
        g = G.diagonal().real
        # rows of the pure powers z_j^{m_j}, in the order of j
        d = len(self.weights.m)
        pure = [index.get(tuple(mj if i == j else 0 for i in range(d)))
                for j, mj in enumerate(self.weights.m)]
        if None not in pure and np.all(g > 0):
            # scaled by sqrt(g) on each side, so no product g_K g_L over- or
            # underflows; the unit diagonal is then set exactly.  A quotient
            # overflows only when |S[K, L]| >= 1, and any such off-diagonal
            # entry, inf included, already rules out a positive definite S
            h = np.sqrt(g)
            with np.errstate(over="ignore"):
                S = G / h[:, None] / h
            np.fill_diagonal(S, 1.0)
            if np.abs(S - np.eye(len(g))).max() < 1.0:
                eig = np.linalg.eigvalsh(S)
                if eig[0] > GRAM_MARGIN * eig[-1]:
                    lam = eig[0] - len(g) * np.finfo(float).eps * eig[-1]
                    return lam * g[pure]
        raise PositivityError(
            "P is not certified positive off the origin: its Gram matrix over the "
            "table's monomials misses a pure power z_j^{m_j} or is not positive definite")


def unit_ball_polynomial(n: int) -> WeightedPolynomial:
    """P(z') = |z'|^2 with all exponents one: the ellipsoid is the unit ball."""
    mw = MultiWeight((1,) * (n - 1))
    terms = {}
    for j in range(n - 1):
        e = tuple(1 if i == j else 0 for i in range(n - 1))
        terms[(e, e)] = 1.0
    return WeightedPolynomial(mw, terms)


def quartic_disc_polynomial() -> WeightedPolynomial:
    """P(z_1) = |z_1|^4 on C, the classic weakly pseudoconvex example."""
    return WeightedPolynomial(MultiWeight((2,)), {((2,), (2,)): 1.0})
