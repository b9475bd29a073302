"""Generalized ellipsoids {|z_n|^2 + P(z') < 1} and their internal subdomains.

The defining gauge is rho(z) = |z_n|^2 - 1 + P(z'), negative inside,
zero on the boundary.  It is held as one Hermitian table in all n
variables (`GeneralEllipsoid.gauge`); rho, its gradient and the complex
Hessian behind the batched Levi form evaluate that table.  Subdomains
D^{s,r} = {|z_n - (1-s)|^2 + (s/r) P(z') < s^2} sit inside the domain and
osculate it at (0', 1); they drive both the tangential-convergence
classifier and the squeezing floor estimates.  By the homogeneity of P,
D^{s,r} is the image of D under w -> (delta_{rs}(w'), 1 - s + s w_n), which
carries the level t of D (|w_n|^2 + P(w') = t) to the level s^2 t of
D^{s,r}; the floor grid of `squeeze.subdomain_grid` is built this way.

Boundary points are weighted dilations of sphere points, in closed form:
rho + 1 = |z_n|^2 + P(z') is homogeneous of degree one under
Delta_s(z) = (delta_s(z'), s^(1/2) z_n), so for u != 0 the point
Delta_s(u) with s = 1 / (|u_n|^2 + P(u')) lies on the boundary, and each
Delta-orbit meets the boundary exactly once.  No root is solved, and
drawing a cloud cannot fail.

On n = 2 the least restricted Levi eigenvalue outside a tube |z_1| < eps
needs no cloud.  Every n = 2 table is P = a |z_1|^{2m} (the weight rule
leaves no other term), so along the boundary the eigenvalue depends on
r = |z_1| alone: with y = a r^{2m}, c = m^2 a^{1/m} and alpha = 1 - 1/m it
is c y^alpha / (1 - y + c y^{1 + alpha}).  Its reciprocal
(y^{-alpha} - y^{1 - alpha}) / c + y is convex in y, and y grows with r, so
the minimum over r in [eps, a^{-1/(2m)}] lies at one of the two ends:
r = eps, or the circle z_2 = 0, where the value is 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import EmptySampleError
from .hermpoly import HermitianPolynomial
from .util import blocks, complex_sphere, write_csv
from .wpoly import WeightedPolynomial, unit_ball_polynomial, quartic_disc_polynomial


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


class GeneralEllipsoid:
    """D_P = {(z', z_n) : |z_n|^2 + P(z') < 1} for an admissible positive P.

    Construction keeps the power floor of
    :meth:`WeightedPolynomial.power_floor`, which proves P > 0 off the
    origin from its Gram matrix (the ball, the quartic, every E(p) and
    cross-term tables whose G is positive definite, however their
    coefficients are scaled) and later bounds the radius; any other table
    raises :class:`PositivityError`.
    """

    def __init__(self, P: WeightedPolynomial):
        self._mu = P.power_floor()
        self.P = P
        self.n = P.weights.n
        # the full gauge |z_n|^2 - 1 + P(z') as one table in all n variables
        zero = (0,) * self.n
        e_n = (0,) * (self.n - 1) + (1,)
        self.gauge = HermitianPolynomial(
            self.n, {(zero, zero): -1.0, (e_n, e_n): 1.0, **P.lifted_terms()})

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
        return self.gauge.value(z)

    def contains(self, z: np.ndarray) -> np.ndarray:
        return self.rho(z) < 0.0

    # -- boundary sampling --------------------------------------------------------

    def boundary_cloud(self, count: int, seed: int = 0) -> np.ndarray:
        """Array of `count` boundary points (prefix-stable in count).

        Sphere points come from :func:`complex_sphere`, and each is
        dilated onto the boundary along its Delta-orbit (module docstring),
        with no root solve, BLOCK rows at a time, so the evaluation of P
        holds one block's power tables however large the cloud.  Each
        point depends only on its index, so the blocks change no bit.
        """
        # s from P's own table: rho(u) + 1 would evaluate the whole gauge
        # and round through -1 + 1
        u = complex_sphere(count, self.n, seed)
        for rows in blocks(count):
            v = u[rows]
            s = 1.0 / (self.P.eval(v[:, :-1]) + (v[:, -1] * np.conj(v[:, -1])).real)
            v[:, :-1] = self.P.weights.dilate(s, v[:, :-1])
            v[:, -1] *= np.sqrt(s)
        return u

    def bounding_radius(self) -> float:
        """A proved upper bound for sup |z| over D (`_sup_norm`)."""
        return self._sup_norm

    @cached_property
    def _sup_norm(self) -> float:
        """Upper bound for sup |z| over D, by weak duality from P's power floor.

        |z| peaks on the boundary, where |z|^2 = 1 + sum_j x_j - P(z') with
        x_j = |z_j|^2, and P >= sum_j y_j with y_j = mu_j x_j^{m_j}, mu the
        power floor kept at construction (no eigenvalue is solved here).
        So sup |z|^2 - 1 is at most the max of sum_j (y_j/mu_j)^{1/m_j} - y_j
        over y >= 0 with sum_j y_j <= 1, and a multiplier t - 1 >= 0 for
        that constraint gives

            sup |z|^2 <= t (1 + sum_{m_j >= 2} (m_j - 1) y_j(t)),
            y_j(t) = ((t m_j)^{m_j} mu_j)^{-1/(m_j - 1)},

        for every t >= t0 = max(1, max over m_j = 1 of 1/mu_j).  The bound
        is least at t0 if sum_j y_j(t0) <= 1, else at the root of
        sum_j y_j(t) = 1, which bisection brackets; on pure-power tables it
        is then the exact sup.  The root in y_j acts on y_j^{-(m_j - 1)}, so
        its inexact exponent costs about eps y_j |log y_j| <= eps / e; the
        rest sums positive terms within a few ulps, halved by the square
        root, which two ulps of rounding up cover.
        """
        m = np.array(self.P.weights.m, dtype=float)
        mu = self._mu
        t = float(np.max(1.0 / mu[m == 1], initial=1.0))
        m, mu = m[m > 1], mu[m > 1]

        def y(t):
            return ((t * m) ** m * mu) ** (-1.0 / (m - 1.0))

        if y(t).sum() > 1.0:
            # every y_j(hi) <= 1 / len(m), so sum_j y_j(hi) <= 1
            lo, hi = t, max(t, float(np.max((len(m) ** (m - 1.0) / mu) ** (1.0 / m) / m)))
            while lo < (mid := 0.5 * (lo + hi)) < hi:
                lo, hi = (mid, hi) if y(mid).sum() > 1.0 else (lo, mid)
            t = hi
        root = math.sqrt(t * (1.0 + ((m - 1.0) * y(t)).sum()))
        return math.nextafter(math.nextafter(root, math.inf), math.inf)

    # -- Levi geometry ----------------------------------------------------------------

    def levi_min_eig(self, z: np.ndarray) -> np.ndarray:
        """Smallest restricted Levi eigenvalue of rho at boundary points.

        `z` has shape (..., n) and the result shape (...).  The complex
        Hessian H of the gauge is restricted to the complex tangent space
        {v : sum v_j d rho/dz_j = 0}, the orthogonal complement of the unit
        normal, through the closed-form Householder basis B of
        :meth:`HermitianPolynomial.tangent_frame`, the one `scaling`'s frames
        use; the restricted form is B^H H B, a 1 x 1 form on n = 2.  A
        positive value means strong pseudoconvexity at the point.  Raises
        ValueError if the gradient vanishes at any point.
        """
        z = np.asarray(z, dtype=np.complex128)
        _, B = self.gauge.tangent_frame(z)
        L = np.conj(np.swapaxes(B, -1, -2)) @ self.gauge.hessian(z) @ B
        L = 0.5 * (L + np.conj(np.swapaxes(L, -1, -2)))
        return np.linalg.eigvalsh(L)[..., 0]

    def wb_scan(self, count: int = 400, seed: int = 0,
                exclusion: float = 1e-2) -> "WBScanReport":
        """Minimum restricted Levi eigenvalue on the boundary outside the
        tube |z'| < exclusion.

        The tube is skipped: the scan probes strong pseudoconvexity away from
        the distinguished circle {(0', e^{i theta})}, where the Levi form of a
        weighted domain may degenerate.

        On n = 2 the minimum is exact (kind "exact"): by the module
        docstring's lemma it lies at one of the two ends of the real segment
        z_1 = r in [exclusion, a^{-1/(2m)}], z_2 = sqrt(1 - P(r)) >= 0, so
        `levi_min_eig` is read at those two points only; `count` and `seed`
        do not enter, and `tested` and `excluded` read 0.  On n >= 3 it is the
        least value over `boundary_cloud(count, seed)` outside the tube (kind
        "sampled"), an upper estimate of the minimum.  Raises
        :class:`EmptySampleError` when the tube holds the whole boundary.
        """
        if self.n == 2:
            # the end z_2 = 0 is e_1 dilated onto the boundary along its
            # Delta-orbit, (a^{-1/(2m)}, 0)
            e_1 = np.ones(1, dtype=np.complex128)
            outer = self.P.weights.dilate(1.0 / float(self.P.eval(e_1)), e_1)
            if exclusion > outer[0].real:
                raise EmptySampleError("exclusion tube holds the whole boundary; lower `exclusion`")
            inner = np.array([exclusion], dtype=np.complex128)
            z_2 = math.sqrt(max(1.0 - float(self.P.eval(inner)), 0.0))
            points = np.array([[inner[0], z_2], [outer[0], 0.0]])
            tested = excluded = 0
            kind = "exact"
        else:
            cloud = self.boundary_cloud(count, seed)
            points = cloud[np.linalg.norm(cloud[:, :-1], axis=1) >= exclusion]
            if len(points) == 0:
                raise EmptySampleError("exclusion tube swallowed every sample; lower `exclusion`")
            tested, excluded = int(len(points)), int(count - len(points))
            kind = "sampled"
        eigs = self.levi_min_eig(points)
        return WBScanReport(
            min_levi=float(eigs.min()),
            tested=tested,
            excluded=excluded,
            exclusion=exclusion,
            levi_values=eigs,
            points=points,
            kind=kind,
        )


@dataclass
class WBScanReport:
    """Result of a strong-pseudoconvexity boundary scan.

    `points` are the boundary points read and `levi_values` their restricted
    Levi eigenvalues.  `kind` is "exact" on n = 2, where `points` are the two
    ends of the segment that holds the minimum and `tested` and `excluded`
    read 0, and "sampled" on n >= 3, where `points` are the cloud's samples
    outside the tube (`tested` of them, `excluded` inside it).
    """

    min_levi: float
    tested: int
    excluded: int
    exclusion: float
    levi_values: np.ndarray
    points: np.ndarray
    kind: str

    @property
    def passed(self) -> bool:
        return self.min_levi > 0.0


def contains_sub(D: GeneralEllipsoid, sp: SubdomainParams, z: np.ndarray) -> np.ndarray:
    """Membership in D^{s,r}: |z_n - (1-s)|^2 + (s/r) P(z') < s^2."""
    z = np.asarray(z, dtype=np.complex128)
    w = z[..., -1] - sp.b
    return (w * np.conj(w)).real + (sp.s / sp.r) * D.P.eval(z[..., :-1]) - sp.s ** 2 < 0.0


def samples_to_csv(path, points: np.ndarray, residual: np.ndarray,
                   levi: np.ndarray) -> None:
    """CSV emission (re_z1, im_z1, ..., residual, levi_min)."""
    points = np.atleast_2d(points)
    header = []
    for j in range(points.shape[1]):
        header += [f"re_z{j + 1}", f"im_z{j + 1}"]
    header += ["residual", "levi_min"]
    # "%.17g" writes a float as fmt does; one format string for the whole
    # body skips fmt's per-cell type checks and the per-row formatting
    row_format = ",".join(["%.17g"] * len(header))
    parts = np.stack([points.real, points.imag], axis=-1).reshape(len(points), 2 * points.shape[1])
    cells = np.column_stack([parts, residual, levi]).ravel().tolist()
    body = "\n".join([row_format] * len(points)) % tuple(cells)
    write_csv(path, header, [[body]] if len(points) else [])
