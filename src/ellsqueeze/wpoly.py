"""Weighted-homogeneous Hermitian polynomials P(z') on C^(n-1).

Fixing positive integer exponents (m_1, ..., m_{n-1}), the weight of a
multi-index K is wt(K) = sum k_j / (2 m_j).  Admissible tables carry only
pairs (K, L) with wt(K) = wt(L) = 1/2, which makes P homogeneous of
degree one under the anisotropic dilation

    delta_t(z') = (t^{1/(2 m_1)} z_1, ..., t^{1/(2 m_{n-1})} z_{n-1}).

Weights are exact rationals: admissibility is decided by Fraction
arithmetic, never by floating-point comparison.  Positivity of P off the
origin is proved, where it can be, from the table's Gram matrix
(:meth:`WeightedPolynomial.gram_certified`).  When every monomial of the
table is a pure power z_j^{m_j}, the Gram matrix decides both ways, so a
declined table is refused outright; any other declined table is judged
by a sampled scan (a report, not a proof).  Domains call
:meth:`WeightedPolynomial.require_positive`, which makes this decision.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence, Tuple

import numpy as np

from .errors import AdmissibilityError, PositivityError
from .hermpoly import HermitianPolynomial
from .util import complex_sphere

HALF = Fraction(1, 2)
# smallest eigenvalue of a certified Gram matrix, relative to its largest
# |eigenvalue|; the eigenvalue solve is backward stable, so its error is a
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


@dataclass(frozen=True)
class PositivityReport:
    """Outcome of a sampled positivity scan (heuristic, seed-reproducible)."""

    min_value: float
    argmin: np.ndarray

    @property
    def passed(self) -> bool:
        return self.min_value > 0.0


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

    def _pure_powers(self) -> set:
        d = len(self.weights.m)
        return {tuple(mj if i == j else 0 for i in range(d))
                for j, mj in enumerate(self.weights.m)}

    def _monomials(self) -> list:
        """The weight-1/2 monomials z^K occurring in the table, sorted."""
        return sorted({K for pair in self.table.canonical for K in pair})

    def gram_certified(self) -> bool:
        """Whether the Gram matrix of the table proves P > 0 off the origin.

        With w the vector of weight-1/2 monomials z^K occurring in the table
        and G[K, L] = c_KL Hermitian, P(z') = sum_KL G[K, L] w_K conj(w_L),
        so P >= lambda_min(G) |w|^2.  If G is positive definite and w holds
        every pure power z_j^{m_j}, then |w|^2 > 0 for z' != 0 and P > 0
        there: an exact proof.  The converse fails, since monomials such as
        z1^2, z1 z2, z2^2 are algebraically dependent and a positive P can
        have an indefinite G; such tables return False and are left to
        :meth:`positivity_scan`.  A G that is singular up to rounding
        (lambda_min <= GRAM_MARGIN max |lambda|) is not certified.
        """
        monomials = self._monomials()
        if not self._pure_powers() <= set(monomials):
            return False
        index = {K: i for i, K in enumerate(monomials)}
        G = np.zeros((len(monomials), len(monomials)), dtype=np.complex128)
        for (K, L), c in self.table.canonical.items():
            G[index[K], index[L]] = c
            G[index[L], index[K]] = np.conj(c)
        eig = np.linalg.eigvalsh(G)
        return bool(eig[0] > GRAM_MARGIN * np.abs(eig).max())

    def require_positive(self) -> None:
        """Raise :class:`PositivityError` unless P > 0 off the origin.

        A Gram certificate accepts the table.  When every monomial of the
        table is a pure power z_j^{m_j} (every table for n = 2 or for
        m = (2, 3)), z' -> w = (z_j^{m_j})_j maps onto C^{n-1}, and a table
        the certificate declines misses a pure power, so P vanishes on
        that axis, or has a G with some w != 0 and w* G w <= 0 up to
        rounding, so P vanishes or turns negative off the origin: it is
        refused without a scan.  Any other declined table must pass
        :meth:`positivity_scan`.
        """
        if self.gram_certified():
            return
        if set(self._monomials()) <= self._pure_powers():
            raise PositivityError(
                "P is not positive off the origin: its monomials are pure powers "
                "z_j^{m_j} and their Gram matrix is not positive definite")
        report = self.positivity_scan()
        if not report.passed:
            raise PositivityError(
                f"P is not positive off the origin: min sampled value {report.min_value:g} "
                f"at z'={report.argmin}")

    def positivity_scan(self, count: int = 512, seed: int = 0) -> PositivityReport:
        """Minimum of P over unit-sphere samples plus the coordinate axes.

        Every z' != 0 is delta_t(u) for exactly one unit u and t > 0, and
        P(delta_t u) = t P(u), so positivity on the sphere is equivalent to
        positivity off the origin.  Sampling cannot certify it (where the
        table allows, :meth:`gram_certified` does); the report records the
        scanned minimum and flags min <= 0 as failure.
        """
        if count < 1:
            raise ValueError("count must be >= 1")
        d = len(self.weights.m)
        axes = np.eye(d, dtype=np.complex128)
        pts = [axes]
        if count > d:
            pts.append(complex_sphere(count - d, d, seed))
        pts = np.concatenate(pts, axis=0)[:count]
        vals = self.eval(pts)
        k = int(np.argmin(vals))
        return PositivityReport(float(vals[k]), pts[k].copy())


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
