"""Generalized ellipsoids {|z_n|^2 + P(z') < 1} and their internal subdomains.

The defining gauge is rho(z) = |z_n|^2 - 1 + P(z'), negative inside,
zero on the boundary.  Subdomains D^{s,r} = {|z_n - (1-s)|^2 + (s/r) P(z') < s^2}
sit inside the domain and osculate it at (0', 1); they drive both the
tangential-convergence classifier and the squeezing floor estimates.

Boundary points are radial first crossings: rho(0) = -1 and the domain
is bounded, so every ray t u from the origin reaches the zero level.
Along the ray the gauge is a real polynomial in t, and
:func:`~ellsqueeze.hermpoly.first_crossing` returns its smallest positive
root from the companion eigenvalues of the radial coefficients, so
non-monotone profiles still give the first sign change.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .errors import BoundedSearchError, PositivityError
from .hermpoly import HermitianPolynomial, first_crossing
from .util import complex_sphere, write_csv
from .wpoly import WeightedPolynomial, unit_ball_polynomial, quartic_disc_polynomial

# reference cloud used for radii that must not depend on a caller's sample count
REFERENCE_COUNT = 1 << 14
REFERENCE_SEED = 20210
# rays with no boundary crossing up to this radius are skipped
RAY_CAP = 1e6


@dataclass(frozen=True)
class SubdomainParams:
    """Parameters (s, r) of D^{s,r}; r = 1 recovers D^s, with center 1 - s."""

    s: float
    r: float = 1.0

    def __post_init__(self):
        if not (0.0 < self.s <= 1.0):
            raise ValueError(f"s must lie in (0, 1], got {self.s}")
        if not (0.0 < self.r <= 1.0):
            raise ValueError(f"r must lie in (0, 1], got {self.r}")

    @property
    def b(self) -> float:
        return 1.0 - self.s


@dataclass(frozen=True)
class BoundaryPoint:
    """A numerically located boundary point with its root-finding residual."""

    z: np.ndarray
    residual: float


class GeneralEllipsoid:
    """D_P = {(z', z_n) : |z_n|^2 + P(z') < 1} for an admissible positive P."""

    def __init__(self, P: WeightedPolynomial, positivity_count: int = 512,
                 positivity_seed: int = 0):
        report = P.positivity_scan(positivity_count, positivity_seed)
        if not report.passed:
            raise PositivityError(
                f"P is not positive off the origin: min sampled value {report.min_value:g} "
                f"at z'={report.argmin}")
        self.P = P
        self.n = P.weights.n
        # the full gauge |z_n|^2 - 1 + P(z') as one table, for the ray solves
        e_n = (0,) * (self.n - 1) + (1,)
        terms = {((0,) * self.n, (0,) * self.n): -1.0, (e_n, e_n): 1.0}
        for (K, L), c in P.table.canonical.items():
            terms[(K + (0,), L + (0,))] = c
        self._gauge = HermitianPolynomial(self.n, terms)
        self._cloud_cache: dict = {}
        self._radius_cache: dict = {}

    @classmethod
    def unit_ball(cls, n: int) -> "GeneralEllipsoid":
        return cls(unit_ball_polynomial(n))

    @classmethod
    def quartic_disc(cls) -> "GeneralEllipsoid":
        """The two-dimensional example {|z_2|^2 + |z_1|^4 < 1}."""
        return cls(quartic_disc_polynomial())

    @classmethod
    def load(cls, path) -> "GeneralEllipsoid":
        return cls(WeightedPolynomial.load(path))

    # -- gauge ------------------------------------------------------------------

    def rho(self, z: np.ndarray) -> np.ndarray:
        """|z_n|^2 - 1 + P(z') at points of shape (..., n)."""
        z = np.asarray(z, dtype=np.complex128)
        zn = z[..., -1]
        return (zn * np.conj(zn)).real - 1.0 + self.P.eval(z[..., :-1])

    def contains(self, z: np.ndarray, tol: float = 0.0) -> np.ndarray:
        return self.rho(z) < tol

    def rho_gradient(self, z: np.ndarray) -> np.ndarray:
        """Holomorphic gradient (dP/dz_1, ..., dP/dz_{n-1}, conj(z_n))."""
        z = np.asarray(z, dtype=np.complex128)
        out = np.empty(z.shape, dtype=np.complex128)
        out[..., :-1] = self.P.gradient(z[..., :-1])
        out[..., -1] = np.conj(z[..., -1])
        return out

    def dist_to_boundary(self, z: np.ndarray) -> np.ndarray:
        """First-order estimate |rho| / |grad_R rho| (real gradient norm)."""
        g = 2.0 * np.linalg.norm(self.rho_gradient(z), axis=-1)
        return np.abs(self.rho(z)) / g

    # -- boundary sampling --------------------------------------------------------

    def boundary_cloud(self, count: int, seed: int = 0) -> np.ndarray:
        """Array of `count` boundary points (prefix-stable in count).

        Directions come from a scrambled Sobol sphere sequence; along each
        ray the boundary point is the smallest positive root of the radial
        gauge polynomial (companion eigenvalues, one Newton polish).
        """
        key = int(seed)
        cached = self._cloud_cache.get(key)
        if cached is not None and len(cached) >= count:
            return cached[:count]
        pts = self._solve_boundary(count, seed)
        self._cloud_cache[key] = pts
        return pts

    def _solve_boundary(self, count: int, seed: int) -> np.ndarray:
        # rays without a crossing inside the cap are skipped and replaced by
        # later draws of the same direction stream; a bounded domain with
        # rho(0) = -1 guarantees crossings, so this only fires defensively
        collected = []
        drawn = 0
        rounds = 0
        while sum(len(c) for c in collected) < count:
            rounds += 1
            if rounds > 8:
                raise BoundedSearchError(
                    "boundary sampling failed: too many rays without crossings", RAY_CAP)
            need = count - sum(len(c) for c in collected)
            u = complex_sphere(drawn + need, self.n, seed)[drawn:]
            drawn += need
            t = first_crossing(self._gauge, u, 0.0, RAY_CAP)
            ok = np.isfinite(t)
            collected.append(t[ok, None] * u[ok])
        return np.concatenate(collected, axis=0)[:count]

    def boundary_sample(self, count: int, seed: int = 0) -> List[BoundaryPoint]:
        pts = self.boundary_cloud(count, seed)
        res = np.abs(self.rho(pts))
        return [BoundaryPoint(pts[i].copy(), float(res[i])) for i in range(count)]

    def bounding_radius(self, margin: float = 0.01) -> float:
        """Radius R with D contained in the ball B(0, R).

        Computed as the max norm over the fixed reference boundary cloud plus
        a safety margin; |z| has no interior maximum, so the boundary sup is
        the domain sup.
        """
        key = float(margin)
        if key not in self._radius_cache:
            pts = self.boundary_cloud(REFERENCE_COUNT, REFERENCE_SEED)
            self._radius_cache[key] = float(np.linalg.norm(pts, axis=1).max()) * (1.0 + margin)
        return self._radius_cache[key]

    # -- subdomains ----------------------------------------------------------------

    def sub_gauge(self, sp: SubdomainParams, z: np.ndarray) -> np.ndarray:
        """|z_n - (1-s)|^2 + (s/r) P(z') - s^2; negative inside D^{s,r}."""
        z = np.asarray(z, dtype=np.complex128)
        w = z[..., -1] - sp.b
        return (w * np.conj(w)).real + (sp.s / sp.r) * self.P.eval(z[..., :-1]) - sp.s ** 2

    # -- Levi geometry ----------------------------------------------------------------

    def levi_min_eig(self, z: np.ndarray) -> float:
        """Smallest restricted Levi eigenvalue of rho at a boundary point.

        The complex Hessian of rho is block diagonal (Hessian of P and 1);
        it is restricted to the complex tangent space {v : sum v_j d rho/dz_j = 0}
        via an orthonormal basis from an SVD null space.  Positive value
        means strong pseudoconvexity at the point.
        """
        z = np.asarray(z, dtype=np.complex128).reshape(self.n)
        g = self.rho_gradient(z)
        gn = np.linalg.norm(g)
        if gn < 1e-12:
            raise ValueError("vanishing gradient: complex tangent space is undefined here")
        H = np.zeros((self.n, self.n), dtype=np.complex128)
        H[:-1, :-1] = self.P.complex_hessian(z[:-1])
        H[-1, -1] = 1.0
        # null space of the row vector g: v with g . v = 0
        _, _, vh = np.linalg.svd(g.reshape(1, self.n))
        basis = vh[1:].conj().T
        L = basis.conj().T @ H @ basis
        L = 0.5 * (L + L.conj().T)
        return float(np.linalg.eigvalsh(L)[0])

    def wb_scan(self, count: int = 400, seed: int = 0,
                exclusion: float = 1e-2) -> "WBScanReport":
        """Minimum restricted Levi eigenvalue over boundary samples.

        Points with |z'| below the exclusion radius are skipped: the scan
        probes strong pseudoconvexity away from the distinguished circle
        {(0', e^{i theta})} where the Levi form of a weighted domain may
        degenerate.
        """
        pts = self.boundary_cloud(count, seed)
        keep = np.linalg.norm(pts[:, :-1], axis=1) >= exclusion
        kept = pts[keep]
        if len(kept) == 0:
            raise ValueError("exclusion tube swallowed every sample; lower `exclusion`")
        eigs = np.array([self.levi_min_eig(p) for p in kept])
        k = int(np.argmin(eigs))
        return WBScanReport(
            min_levi=float(eigs[k]),
            argmin=kept[k].copy(),
            tested=int(len(kept)),
            excluded=int(count - len(kept)),
            exclusion=exclusion,
            seed=seed,
            levi_values=eigs,
            points=kept,
        )


@dataclass
class WBScanReport:
    """Result of a strong-pseudoconvexity boundary scan."""

    min_levi: float
    argmin: np.ndarray
    tested: int
    excluded: int
    exclusion: float
    seed: int
    levi_values: np.ndarray
    points: np.ndarray

    @property
    def passed(self) -> bool:
        return self.min_levi > 0.0


def contains_sub(D: GeneralEllipsoid, sp: SubdomainParams, z: np.ndarray) -> np.ndarray:
    """Membership test for the internal subdomain D^{s,r}."""
    return D.sub_gauge(sp, z) < 0.0


def samples_to_csv(path, D: GeneralEllipsoid, points: np.ndarray,
                   levi: Optional[np.ndarray] = None) -> None:
    """CSV emission (re_z1, im_z1, ..., residual, levi_min); levi may be blank."""
    points = np.atleast_2d(points)
    residual = np.abs(D.rho(points))
    header = []
    for j in range(D.n):
        header += [f"re_z{j + 1}", f"im_z{j + 1}"]
    header += ["residual", "levi_min"]
    rows = []
    for i, p in enumerate(points):
        row = []
        for j in range(D.n):
            row += [p[j].real, p[j].imag]
        row.append(residual[i])
        row.append("" if levi is None else levi[i])
        rows.append(row)
    write_csv(path, header, rows)
