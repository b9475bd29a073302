"""Real-valued polynomials in (z, conj z) stored as Hermitian coefficient tables.

A table maps exponent pairs (A, B) in N^d x N^d to complex coefficients
c_{AB} with c_{AB} = conj(c_{BA}); the represented function is

    f(z) = sum c_{AB} z^A conj(z)^B,

which is real for every z exactly when the table is Hermitian.  One
representative per unordered pair {A, B} is stored and the conjugate
partner is materialized on demand, so Hermitian symmetry can never
drift.  Differentiation and composition with affine maps are exact
(coefficient arithmetic only), which the scaling machinery relies on.

:func:`first_crossing` finds where a table first reaches a level along
rays from the origin; it serves both boundary clouds and reach radii.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Tuple

import numpy as np

from .errors import AdmissibilityError

MultiIndex = Tuple[int, ...]
PairKey = Tuple[MultiIndex, MultiIndex]


def _as_index(raw, d: int) -> MultiIndex:
    idx = tuple(int(k) for k in raw)
    if len(idx) != d:
        raise AdmissibilityError(f"multi-index {raw} has length {len(idx)}, expected {d}")
    if any(k < 0 for k in idx):
        raise AdmissibilityError(f"multi-index {raw} has negative entries")
    return idx


class HermitianPolynomial:
    """Immutable Hermitian coefficient table in d complex variables."""

    __slots__ = ("d", "_table", "_expanded")

    def __init__(self, d: int, terms: Mapping[PairKey, complex]):
        """Build from {(A, B): coefficient}; pairs may come in either order.

        Diagonal coefficients (A == B) must be real.  Supplying both (A, B)
        and (B, A) is allowed only when the values are exact conjugates.
        """
        if d < 1:
            raise AdmissibilityError("need at least one variable")
        self.d = int(d)
        table: Dict[PairKey, complex] = {}
        for (ka, kb), coeff in terms.items():
            a = _as_index(ka, self.d)
            b = _as_index(kb, self.d)
            c = complex(coeff)
            if c == 0:
                continue
            if a == b:
                if c.imag != 0.0:
                    raise AdmissibilityError(
                        f"diagonal coefficient for {a} must be real, got {c}")
                key, val = (a, b), c
            elif a <= b:
                key, val = (a, b), c
            else:
                key, val = (b, a), np.conj(c)
            if key in table:
                table[key] = table[key] + val
                if table[key] == 0:
                    del table[key]
            else:
                table[key] = val
        self._table = table
        self._expanded = None

    # -- construction helpers -------------------------------------------------

    @classmethod
    def zero(cls, d: int) -> "HermitianPolynomial":
        return cls(d, {})

    @classmethod
    def constant(cls, d: int, value: float) -> "HermitianPolynomial":
        zero = (0,) * d
        return cls(d, {(zero, zero): value})

    @classmethod
    def from_dict(cls, data: Mapping) -> "HermitianPolynomial":
        d = int(data["nvars"])
        terms = {}
        for t in data["terms"]:
            key = (tuple(int(k) for k in t["A"]), tuple(int(k) for k in t["B"]))
            terms[key] = complex(float(t.get("re", 0.0)), float(t.get("im", 0.0)))
        return cls(d, terms)

    def to_dict(self) -> dict:
        terms = [
            {"A": list(a), "B": list(b), "re": c.real, "im": c.imag}
            for (a, b), c in sorted(self._table.items())
        ]
        return {"nvars": self.d, "terms": terms}

    # -- table access ----------------------------------------------------------

    @property
    def canonical(self) -> Dict[PairKey, complex]:
        """One representative per unordered exponent pair."""
        return dict(self._table)

    def coefficient(self, a: Iterable[int], b: Iterable[int]) -> complex:
        ka = _as_index(a, self.d)
        kb = _as_index(b, self.d)
        if ka == kb or ka <= kb:
            return self._table.get((ka, kb), 0.0 + 0.0j)
        return np.conj(self._table.get((kb, ka), 0.0 + 0.0j))

    def degree(self) -> int:
        if not self._table:
            return 0
        return max(sum(a) + sum(b) for a, b in self._table)

    def __len__(self) -> int:
        return len(self._table)

    def _expand(self):
        """Materialized (A, B, coeff) arrays including conjugate partners."""
        if self._expanded is None:
            A, B, C = [], [], []
            for (a, b), c in sorted(self._table.items()):
                A.append(a)
                B.append(b)
                C.append(c)
                if a != b:
                    A.append(b)
                    B.append(a)
                    C.append(np.conj(c))
            if not A:
                A, B, C = [(0,) * self.d], [(0,) * self.d], [0.0 + 0.0j]
            self._expanded = (
                np.asarray(A, dtype=np.int64),
                np.asarray(B, dtype=np.int64),
                np.asarray(C, dtype=np.complex128),
            )
        return self._expanded

    # -- evaluation and calculus ----------------------------------------------

    def _monomials(self, z: np.ndarray) -> np.ndarray:
        """Monomials z^A conj(z)^B of the expanded table, shape (..., terms)."""
        A, B, _ = self._expand()
        zp = np.asarray(z, dtype=np.complex128)[..., None, :]
        return np.prod(zp ** A, axis=-1) * np.prod(np.conj(zp) ** B, axis=-1)

    def raw_sum(self, z: np.ndarray) -> np.ndarray:
        """Full Hermitian sum as a complex number (imaginary part ~ rounding)."""
        return self._monomials(z) @ self._expand()[2]

    def value(self, z: np.ndarray) -> np.ndarray:
        """Real value of the table at points z of shape (..., d)."""
        return self.raw_sum(z).real

    def gradient(self, z: np.ndarray) -> np.ndarray:
        """Holomorphic derivatives (df/dz_1, ..., df/dz_d), shape (..., d)."""
        A, B, C = self._expand()
        z = np.asarray(z, dtype=np.complex128)
        zp = z[..., None, :]
        anti = np.prod(np.conj(zp) ** B, axis=-1)
        out = np.empty(z.shape, dtype=np.complex128)
        for j in range(self.d):
            Aj = A.copy()
            Aj[:, j] = np.maximum(Aj[:, j] - 1, 0)
            holo = np.prod(zp ** Aj, axis=-1)
            out[..., j] = (holo * anti) @ (C * A[:, j])
        return out

    def hessian(self, z: np.ndarray) -> np.ndarray:
        """Complex Hessian d^2 f / dz_j dconj(z)_k; exactly Hermitian."""
        A, B, C = self._expand()
        z = np.asarray(z, dtype=np.complex128)
        zp = z[..., None, :]
        H = np.empty(z.shape[:-1] + (self.d, self.d), dtype=np.complex128)
        holos = []
        antis = []
        for j in range(self.d):
            Aj = A.copy()
            Aj[:, j] = np.maximum(Aj[:, j] - 1, 0)
            holos.append(np.prod(zp ** Aj, axis=-1))
            Bj = B.copy()
            Bj[:, j] = np.maximum(Bj[:, j] - 1, 0)
            antis.append(np.prod(np.conj(zp) ** Bj, axis=-1))
        for j in range(self.d):
            for k in range(self.d):
                H[..., j, k] = (holos[j] * antis[k]) @ (C * A[:, j] * B[:, k])
        # bitwise-exact Hermitian symmetrization ((x+y)/2 commutes with conj)
        return 0.5 * (H + np.conj(np.swapaxes(H, -1, -2)))

    def min_levi_eigenvalue(self, z: np.ndarray) -> np.ndarray:
        """Smallest eigenvalue of the complex Hessian at each point."""
        H = self.hessian(z)
        return np.linalg.eigvalsh(H)[..., 0]

    # -- arithmetic -------------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, HermitianPolynomial):
            if other.d != self.d:
                raise AdmissibilityError("variable count mismatch")
            merged = dict(self._table)
            for key, c in other._table.items():
                merged[key] = merged.get(key, 0.0 + 0.0j) + c
            return HermitianPolynomial(self.d, merged)
        return self + HermitianPolynomial.constant(self.d, float(other))

    __radd__ = __add__

    def __mul__(self, scalar: float):
        s = float(scalar)
        return HermitianPolynomial(self.d, {k: c * s for k, c in self._table.items()})

    __rmul__ = __mul__

    # -- exact affine composition -----------------------------------------------

    def compose_affine(self, shift: np.ndarray, matrix: np.ndarray) -> "HermitianPolynomial":
        """Table of f(shift + matrix @ w) as a polynomial in the new variable w.

        `matrix` has shape (d, e).  The composition is carried out termwise on
        the coefficient table, so it is exact up to floating-point rounding.
        """
        shift = np.asarray(shift, dtype=np.complex128).reshape(self.d)
        matrix = np.asarray(matrix, dtype=np.complex128)
        if matrix.shape[0] != self.d:
            raise AdmissibilityError("matrix row count must match variable count")
        e = matrix.shape[1]

        holo_cache: Dict[MultiIndex, Dict[MultiIndex, complex]] = {}

        def holo_expand(a: MultiIndex) -> Dict[MultiIndex, complex]:
            # expansion of prod_k (shift_k + sum_l matrix[k,l] w_l)^{a_k}
            if a in holo_cache:
                return holo_cache[a]
            poly: Dict[MultiIndex, complex] = {(0,) * e: 1.0 + 0.0j}
            for k, power in enumerate(a):
                lin: Dict[MultiIndex, complex] = {}
                if shift[k] != 0:
                    lin[(0,) * e] = shift[k]
                for l in range(e):
                    if matrix[k, l] != 0:
                        key = tuple(1 if i == l else 0 for i in range(e))
                        lin[key] = lin.get(key, 0.0 + 0.0j) + matrix[k, l]
                for _ in range(power):
                    nxt: Dict[MultiIndex, complex] = {}
                    for ka, ca in poly.items():
                        for kb, cb in lin.items():
                            key = tuple(x + y for x, y in zip(ka, kb))
                            nxt[key] = nxt.get(key, 0.0 + 0.0j) + ca * cb
                    poly = nxt
            holo_cache[a] = poly
            return poly

        out: Dict[PairKey, complex] = {}
        A, B, C = self._expand()
        for a, b, c in zip(map(tuple, A), map(tuple, B), C):
            pa = holo_expand(a)
            pb = holo_expand(b)
            for alpha, ca in pa.items():
                for beta, cb in pb.items():
                    key = (alpha, beta)
                    out[key] = out.get(key, 0.0 + 0.0j) + c * ca * np.conj(cb)
        # the expanded loop visits both members of each conjugate pair, so `out`
        # is Hermitian up to rounding; rebuild canonically from one side
        clean: Dict[PairKey, complex] = {}
        for (alpha, beta), c in out.items():
            if alpha == beta:
                clean[(alpha, beta)] = complex(c.real, 0.0)
            elif alpha <= beta:
                clean[(alpha, beta)] = 0.5 * (c + np.conj(out.get((beta, alpha), c)))
        drop = max((abs(c) for c in clean.values()), default=0.0) * 1e-300
        return HermitianPolynomial(e, {k: c for k, c in clean.items() if abs(c) > drop})


# -- radial first crossings ----------------------------------------------------

# Rays per block in `first_crossing`.  A block holds a (rays x terms) monomial
# array and a (rays x K x K) companion stack, so the block size, not the
# cloud size, bounds the memory a solve adds on large boundary clouds.
CROSSING_BLOCK = 8192

# Largest |Im s| / |s| of a companion eigenvalue taken as a real root.  A
# touching (double) root splits into a conjugate pair whose imaginary part is
# of the order sqrt(machine epsilon) relative to the root.
NEAR_REAL = 1e-6


def first_crossing(table: HermitianPolynomial, directions: np.ndarray, level: float,
                   cap: float) -> np.ndarray:
    """Smallest t in (0, cap] with table(t u) >= level, per direction u.

    `directions` has shape (N, d); entries with no such t are +inf.  The
    table must satisfy table(0) < level.  Along a ray the table is the real
    polynomial sum_k c_k(u) t^k with radial coefficients
    c_k(u) = sum_{|A|+|B|=k} c_AB u^A conj(u)^B, so the first crossing is the
    smallest positive root of p(t) = table(t u) - level; a touching root
    counts.  The roots are the eigenvalues of the companion matrix of the
    reversed polynomial in s = 1/t, whose leading coefficient
    c_0 - level is nonzero; the largest near-real s gives the first
    crossing, and one Newton step polishes it where the step lowers |p|.
    """
    u = np.asarray(directions, dtype=np.complex128)
    A, B, C = table._expand()
    deg = A.sum(axis=1) + B.sum(axis=1)
    K = int(deg.max())
    out = np.full(len(u), np.inf)
    if K == 0:
        return out
    radial = np.zeros((len(C), K + 1), dtype=np.complex128)
    radial[np.arange(len(C)), deg] = C
    for lo in range(0, len(u), CROSSING_BLOCK):
        block = slice(lo, lo + CROSSING_BLOCK)
        coeffs = (table._monomials(u[block]) @ radial).real
        coeffs[:, 0] -= level
        out[block] = _smallest_positive_root(coeffs, cap)
    return out


def _smallest_positive_root(a: np.ndarray, cap: float) -> np.ndarray:
    """Smallest root in (0, cap] of each row's sum_k a_k t^k, else +inf."""
    count, K = a.shape[0], a.shape[1] - 1
    companion = np.zeros((count, K, K))
    companion[:, 0, :] = -a[:, 1:] / a[:, :1]
    companion[:, np.arange(1, K), np.arange(K - 1)] = 1.0
    s = np.linalg.eigvals(companion)
    real = (s.real > 0.0) & (np.abs(s.imag) <= NEAR_REAL * np.abs(s))
    s_max = np.where(real, s.real, 0.0).max(axis=1)
    found = s_max > 0.0
    t = np.full(count, np.inf)
    t[found] = _newton_polish(a[found], 1.0 / s_max[found])
    t[t > cap] = np.inf
    return t


def _newton_polish(a: np.ndarray, t: np.ndarray) -> np.ndarray:
    """One Newton step on sum_k a_k t^k per row, kept where it lowers |p|."""
    p, dp = _horner(a, t)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        stepped = t - p / dp
        better = np.abs(_horner(a, stepped)[0]) < np.abs(p)
    return np.where(better, stepped, t)


def _horner(a: np.ndarray, t: np.ndarray):
    """Values and derivatives of sum_k a_k t^k per row."""
    p = a[:, -1].copy()
    dp = np.zeros_like(p)
    for k in range(a.shape[1] - 2, -1, -1):
        dp = dp * t + p
        p = p * t + a[:, k]
    return p, dp
