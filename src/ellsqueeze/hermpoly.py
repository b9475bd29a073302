"""Real-valued polynomials in (z, conj z) stored as Hermitian coefficient tables.

A table maps exponent pairs (A, B) in N^d x N^d to complex coefficients
c_{AB} with c_{AB} = conj(c_{BA}); the represented function is

    f(z) = sum c_{AB} z^A conj(z)^B,

which is real for every z exactly when the table is Hermitian.  One
representative per unordered pair {A, B} is stored and the conjugate
partner is materialized on demand, so Hermitian symmetry can never
drift.  Differentiation and composition with affine maps are exact
(coefficient arithmetic only), which the scaling machinery relies on.

Every evaluation goes through one monomial kernel, planned once per
table (`_Plan`): per variable one power table of z_j and one of conj z_j
over the exponents 0..top the table uses, and each monomial a product of
gathers from those tables.  `value`, `gradient`, `hessian` and
:func:`first_crossing` share it; derivatives gather lowered exponents
from the same tables.

:func:`first_crossing` finds where a table first reaches a level along
rays from the origin; it serves the reach radii of `scaling`, at most
`scaling.PHASE_GRID` rays per call.  The signs of a ray's radial
coefficients leave it unsolved, or pick Newton or companion eigenvalues
(see :func:`first_crossing`).
"""

from __future__ import annotations

import cmath
from typing import Dict, Iterable, Mapping, Tuple

import numpy as np

from .errors import AdmissibilityError, BoundedSearchError

MultiIndex = Tuple[int, ...]
PairKey = Tuple[MultiIndex, MultiIndex]


def _as_index(raw, d: int) -> MultiIndex:
    idx = tuple(int(k) for k in raw)
    if len(idx) != d:
        raise AdmissibilityError(f"multi-index {raw} has length {len(idx)}, expected {d}")
    if any(k < 0 for k in idx):
        raise AdmissibilityError(f"multi-index {raw} has negative entries")
    return idx


class _Plan:
    """A table's expanded arrays and its monomial kernel, built once per table.

    A, B and C hold every stored pair and its conjugate partner.  exps[j]
    holds the exponents 0..top_j of variable j, top_j its largest in A or
    B.  A power table z_j^exps[j] is indexed by the exponent itself, so
    `holo` (A transposed) and `anti` (B transposed) are the gathers, one
    row per variable, and a lowered exponent max(A[r, j] - 1, 0) is a
    gather from the same table.  `radial` maps the monomials to the radial
    coefficients c_0..c_K of :func:`first_crossing`.
    """

    __slots__ = ("A", "B", "C", "exps", "holo", "anti", "radial", "K")

    def __init__(self, A: list, B: list, C: list):
        self.A = np.asarray(A, dtype=np.int64)
        self.B = np.asarray(B, dtype=np.int64)
        self.C = np.asarray(C, dtype=np.complex128)
        self.exps = [np.arange(max(col) + 1) for col in zip(*A, *B)]
        self.holo = self.A.T.copy()
        self.anti = self.B.T.copy()
        deg = [sum(a) + sum(b) for a, b in zip(A, B)]
        self.K = max(deg)
        self.radial = np.zeros((len(C), self.K + 1), dtype=np.complex128)
        self.radial[np.arange(len(C)), deg] = self.C

    def product(self, z: np.ndarray, index: np.ndarray) -> np.ndarray:
        """prod_j z_j^index[j] for points z of shape (..., d), shape (..., rows).

        Each variable's power table comes from one `np.power` call, whose
        small integer powers multiply in their own order (numpy's
        vectorized z * z rounds some points differently from z ** 2); row
        r takes entry index[j, r] of table j.  The gathered columns
        multiply from the first variable to the last in numpy's vectorized
        complex product, into a C-contiguous array: BLAS sums the products
        with C in an order that depends on the layout.
        """
        out = np.power(z[..., 0, None], self.exps[0]).take(index[0], axis=-1)
        for j in range(1, len(index)):
            out *= np.power(z[..., j, None], self.exps[j]).take(index[j], axis=-1)
        return out

    @staticmethod
    def lowered(index: np.ndarray):
        """Per variable j, `index` with row j lowered by one, floored at 0."""
        for j, row in enumerate(index):
            low = index.copy()
            low[j] = np.maximum(row - 1, 0)
            yield low


class HermitianPolynomial:
    """Immutable Hermitian coefficient table in d complex variables."""

    __slots__ = ("d", "_table", "_plan")

    def __init__(self, d: int, terms: Mapping[PairKey, complex]):
        """Build from {(A, B): coefficient}; pairs may come in either order.

        Coefficients must be finite, and diagonal ones (A == B) real.
        Supplying both (A, B) and (B, A) is allowed only when the values are
        exact conjugates, and the pair is then stored once.
        """
        if d < 1:
            raise AdmissibilityError("need at least one variable")
        self.d = int(d)
        table: Dict[PairKey, complex] = {}
        for (ka, kb), coeff in terms.items():
            a = _as_index(ka, self.d)
            b = _as_index(kb, self.d)
            c = complex(coeff)
            if not cmath.isfinite(c):
                raise AdmissibilityError(f"coefficient for {a, b} is not finite: {c}")
            if a == b and c.imag != 0.0:
                raise AdmissibilityError(
                    f"diagonal coefficient for {a} must be real, got {c}")
            key, val = ((a, b), c) if a <= b else ((b, a), np.conj(c))
            if table.setdefault(key, val) != val:
                raise AdmissibilityError(
                    f"coefficients for {a, b} and its mirror are not conjugates")
        self._table = {key: val for key, val in table.items() if val != 0}
        self._plan = None

    # -- table access ----------------------------------------------------------

    @property
    def canonical(self) -> Dict[PairKey, complex]:
        """One representative per unordered exponent pair."""
        return dict(self._table)

    def coefficient(self, a: Iterable[int], b: Iterable[int]) -> complex:
        ka = _as_index(a, self.d)
        kb = _as_index(b, self.d)
        if ka <= kb:
            return self._table.get((ka, kb), 0.0 + 0.0j)
        return np.conj(self._table.get((kb, ka), 0.0 + 0.0j))

    def _expand(self) -> _Plan:
        """Evaluation plan of the table with its conjugate partners, built once."""
        if self._plan is None:
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
            self._plan = _Plan(A, B, C)
        return self._plan

    # -- evaluation and calculus ----------------------------------------------

    def _monomials(self, z: np.ndarray) -> np.ndarray:
        """Monomials z^A conj(z)^B of the expanded table, shape (..., terms)."""
        plan = self._expand()
        z = np.asarray(z, dtype=np.complex128)
        out = plan.product(z, plan.holo)
        out *= plan.product(np.conj(z), plan.anti)
        return out

    def raw_sum(self, z: np.ndarray) -> np.ndarray:
        """Full Hermitian sum as a complex number (imaginary part ~ rounding)."""
        return self._monomials(z) @ self._expand().C

    def value(self, z: np.ndarray) -> np.ndarray:
        """Real value of the table at points z of shape (..., d)."""
        return self.raw_sum(z).real

    def gradient(self, z: np.ndarray) -> np.ndarray:
        """Holomorphic derivatives (df/dz_1, ..., df/dz_d), shape (..., d).

        Rows with A_j = 0 keep their exponents in df/dz_j; their weight
        A_j c is zero, so the monomial they produce never contributes.
        """
        plan = self._expand()
        z = np.asarray(z, dtype=np.complex128)
        anti = plan.product(np.conj(z), plan.anti)
        out = np.empty(z.shape, dtype=np.complex128)
        for j, index in enumerate(plan.lowered(plan.holo)):
            holo = plan.product(z, index)
            holo *= anti
            out[..., j] = holo @ (plan.C * plan.A[:, j])
        return out

    def hessian(self, z: np.ndarray) -> np.ndarray:
        """Complex Hessian d^2 f / dz_j dconj(z)_k; exactly Hermitian."""
        plan = self._expand()
        z = np.asarray(z, dtype=np.complex128)
        zc = np.conj(z)
        holo = [plan.product(z, index) for index in plan.lowered(plan.holo)]
        anti = [plan.product(zc, index) for index in plan.lowered(plan.anti)]
        H = np.empty(z.shape[:-1] + (self.d, self.d), dtype=np.complex128)
        for j in range(self.d):
            for k in range(self.d):
                H[..., j, k] = (holo[j] * anti[k]) @ (plan.C * plan.A[:, j] * plan.B[:, k])
        # bitwise-exact Hermitian symmetrization ((x+y)/2 commutes with conj)
        return 0.5 * (H + np.conj(np.swapaxes(H, -1, -2)))

    def min_levi_eigenvalue(self, z: np.ndarray) -> np.ndarray:
        """Smallest eigenvalue of the complex Hessian at each point."""
        H = self.hessian(z)
        return np.linalg.eigvalsh(H)[..., 0]

    # -- arithmetic -------------------------------------------------------------

    def __mul__(self, scalar: float):
        s = float(scalar)
        return HermitianPolynomial(self.d, {k: c * s for k, c in self._table.items()})

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
        plan = self._expand()
        for a, b, c in zip(map(tuple, plan.A), map(tuple, plan.B), plan.C):
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

# Largest |Im s| / |s| of a companion eigenvalue taken as a real root.  A
# touching (double) root splits into a conjugate pair whose imaginary part is
# of the order sqrt(machine epsilon) relative to the root.
NEAR_REAL = 1e-6

# Largest radius searched along a ray for a reach radius; a crossing beyond
# it counts as none.
RAY_CAP = 1e6

# Newton iterations allowed per call on monotone rays.  Reach lines settle
# within 7; the start is within a factor of the number of positive radial
# terms of the root.
NEWTON_MAX_ITER = 64


def first_crossing(table: HermitianPolynomial, directions: np.ndarray, level: float,
                   cap: float) -> np.ndarray:
    """Smallest t in (0, cap] with table(t u) >= level, per direction u.

    `directions` has shape (N, d); entries with no such t are +inf.  The
    table must satisfy table(0) < level.  Along a ray the table is the real
    polynomial sum_k c_k(u) t^k with radial coefficients
    c_k(u) = sum_{|A|+|B|=k} c_AB u^A conj(u)^B, so the first crossing is the
    smallest positive root of p(t) = table(t u) - level, with coefficients
    q_0 = c_0(u) - level and q_k = c_k(u); a touching root counts.

    Descartes's rule of signs picks each ray's path:

    - q_0 < 0 and no q_k > 0: p < 0 on t > 0, so the ray stays +inf
      unsolved, as on half the phases of a weighted model's normal line,
      where p = t cos(phase) - level.
    - *monotone*, q_0 < 0, every other q_k >= 0 and some q_k > 0: p has
      exactly one positive root, simple, and is convex and increasing on
      t > 0, so monotone Newton from an upper bound finds it
      (:func:`_monotone_newton_root`).  So are the other phases of that
      normal line, and every phase of the tangential axes through a base
      point on it, where the translated table restricts to |w^A|^2 terms
      with positive coefficients.
    - every other ray, with q_k of both signs or q_0 >= 0, as `tau` meets
      at general base points, solves by companion eigenvalues
      (:func:`_smallest_positive_root`): the roots of p are the
      reciprocals of the eigenvalues of the companion matrix of its
      reversed polynomial, whose leading coefficient q_0 is nonzero, and
      the largest near-real one gives the first crossing, else +inf.

    Either root is polished by one Newton step on p where it lowers |p|.
    """
    u = np.asarray(directions, dtype=np.complex128)
    plan = table._expand()
    t = np.full(len(u), np.inf)
    if plan.K == 0:
        return t
    q = (table._monomials(u) @ plan.radial).real
    q[:, 0] -= level
    below = q[:, 0] < 0.0
    rising = (q[:, 1:] > 0.0).any(axis=1)
    monotone = below & rising & (q[:, 1:] >= 0.0).all(axis=1)
    other = ~monotone & (rising | ~below)
    t[monotone] = _monotone_newton_root(q[monotone])
    if other.any():
        t[other] = _smallest_positive_root(q[other])
    found = np.isfinite(t)
    t[found] = _newton_polish(q[found], t[found])
    t[t > cap] = np.inf
    return t


def _monotone_newton_root(q: np.ndarray) -> np.ndarray:
    """The one positive root of each row's sum_k q_k x^k.

    Rows must have q_0 < 0, q_k >= 0 otherwise and some q_k > 0.  Newton
    starts at x0 = min over q_k > 0 of (-q_0 / q_k)^(1/k).  The term
    q_k x^k alone reaches -q_0 at (-q_0 / q_k)^(1/k), so the polynomial is
    >= 0 there and x0 is at least the root; at the root some positive term
    holds a share of at least 1/(positive terms) of -q_0, so x0 is at most
    the number of positive terms times the root.  The polynomial is convex
    and increasing on x > 0, so the iterates decrease to the root;
    iteration stops when no row decreases.
    """
    K = q.shape[1] - 1
    positive = q[:, 1:] > 0.0
    reach = np.divide(-q[:, :1], q[:, 1:], out=np.full(positive.shape, np.inf),
                      where=positive)
    x = (reach ** (1.0 / np.arange(1, K + 1))).min(axis=1)
    for _ in range(NEWTON_MAX_ITER):
        p, dp = _horner(q, x)
        stepped = x - p / dp
        lower = stepped < x
        if not lower.any():
            break
        x = np.where(lower, stepped, x)
    else:
        raise BoundedSearchError(
            "monotone Newton did not settle within its iteration cap", NEWTON_MAX_ITER)
    return x


def _smallest_positive_root(q: np.ndarray) -> np.ndarray:
    """Smallest positive root of each row's sum_k q_k x^k, else +inf.

    The roots are the reciprocals of the eigenvalues of the companion
    matrix of the reversed polynomial, whose leading coefficient q_0 must
    be nonzero; the largest near-real eigenvalue gives the smallest root.
    """
    s = companion_roots(q)
    real = (s.real > 0.0) & (np.abs(s.imag) <= NEAR_REAL * np.abs(s))
    s_max = np.where(real, s.real, 0.0).max(axis=1)
    with np.errstate(divide="ignore"):
        return 1.0 / s_max


def companion_roots(coef: np.ndarray) -> np.ndarray:
    """Complex roots of each row's coef_0 x^K + coef_1 x^(K-1) + ... + coef_K,
    coef_0 nonzero, K >= 1: the eigenvalues of its companion matrix (first
    row -coef_k / coef_0, ones on the subdiagonal), all rows in one batched
    `np.linalg.eigvals` call."""
    count, K = coef.shape[0], coef.shape[1] - 1
    companion = np.zeros((count, K, K))
    companion[:, 0] = -coef[:, 1:] / coef[:, :1]
    companion[:, np.arange(1, K), np.arange(K - 1)] = 1.0
    return np.linalg.eigvals(companion)


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
