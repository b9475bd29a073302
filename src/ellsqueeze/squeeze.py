"""Inscribed radii of explicit embedding chains: exact on n = 2, sampled above.

For an embedding f of the domain into the unit ball with f(p) = 0, the
largest ball around the origin inside f(D) is a lower bound for the
squeezing function at p.  Chains are built from three step types: a
domain automorphism, an affine contraction z -> (L z - centre) / R
(`Rescale`, L a diagonal of coordinate scales), and the standard
involutive ball automorphism phi_c (phi_c(c) = 0).  Every chain ends in
the contraction and phi_c, and

    |phi_c(u)|^2 = 1 - (1 - |c|^2)(1 - |u|^2) / |1 - <u, c>|^2.

The strategy family (`chain_family`):

  trivial    rescale by R_pad, the bounding radius padded by 1%
             (TRIVIAL_PAD), then center the image of p;
  normalize  move p to the slice {z_n = 0} with the explicit
             automorphism psi, rescale by R_tight, the proved bound for the
             sup norm of the domain (`GeneralEllipsoid.bounding_radius`),
             then center the image b = psi(p);
  tangent    n = 2 only: psi, then z -> (L z - (1 - m) q) / m with
             L z_1 = a^{1/(2m)} z_1 and q = (b_1 / |b_1|, 0) (q = (1, 0) when
             b_1 = 0), then center.  In the coordinates L z the domain is
             {|z_2|^2 + |z_1|^{2m} < 1}, which lies in the ball of radius m
             around (1 - m) q: with r = |z_1|, |z - (1 - m) q|^2 is at most
             (r + m - 1)^2 + 1 - r^{2m} <= m^2.  That ball touches the
             boundary at q with the boundary's own complex-tangential
             curvature, so the radius tends to 1 as b tends to q.

Each affine step maps D into the unit ball, so each chain's inscribed
radius is a lower bound for the squeezing function.  psi is an
automorphism of D and maps the boundary bD onto itself, so on every n a
chain's radius is the minimum over w in bD of the closed form above at
u = step(w), its affine step's image: psi drops out.  Each chain keeps
psi as the witness of its embedding, and `check_basepoint` centres it.

On n = 2 the radii are exact.  Every n = 2 table is a |z_1|^{2m} (the
weight rule leaves no other term), so D is invariant under the torus
z_k -> e^{i theta_k} z_k, and the minimum lies on one real segment:

  - trivial and normalize: the worst phases align w with c, which leaves
    a minimum over the boundary modulus r_1 in [0, a^{-1/(2m)}], with z_1
    along c_1 and z_2 along c_2;
  - tangent: c = (gamma, 0) points along q.  For a fixed |z_1| the closed
    form is linear-fractional in the component of z_1 along q, so its
    minimum lies on the real segment through q, z_1 in [-1, 1] in the
    coordinates L z.

`_squares` takes both as a minimum over that segment, in floats,
vectorized over basepoints: exact chain radii up to rounding, reported
with kind "exact", not certified.  Where c_2 = 0 (the normalizing and
tangent chains at every basepoint, since psi puts b on the slice, and
every chain at a slice point) the minimum is the least value of the
closed form at x = -1, x = 1 and the real roots of its stationary
polynomial S, of degree 2m, found for all rows by one batched companion
eigenvalue call (`_flat_squares`); S is the polynomial a Sturm count would
certify those minima with.  Elsewhere (the trivial chain off the slice)
the stationary condition keeps sqrt(1 - x^{2m}), and `_least` (a grid,
then zooms around its best local minima) takes the minimum.  The form's
numerator is written by Lagrange's identity,
|u - c|^2 - |u_1 c_2 - u_2 c_1|^2, so a radius near 0 is not lost to the
cancellation in 1 - (...), and the tangent chain's radius next to 1 is not
lost to the cancellation in 1 - |c|^2: that form reads u_1 - c_1 and
1 - u_1 c_1 through 1 - |c_1| and 1 - u_1.  A c_2 = 0 value above 1/2 is
taken from 1 - (1 - |c|^2)(1 - |u|^2) / |1 - <u, c>|^2 instead, which
keeps it within an ulp next to 1.

`gamma_floor` is the slice floor on every n.  psi carries D^{s,r} onto
the slice set {b : b_n = 0, P(b') < r}: with p_n = x + iy and b0 = 1 - s,
s (1 - |p_n|^2) - (s^2 - |p_n - b0|^2) = b0 ((1 - x)^2 + y^2) >= 0, so
P(p') < r (1 - |p_n|^2), and every such b is reached; the squeezing
function is psi-invariant.  So the least best radius over the slice set
bounds the squeezing function on D^{s,r} from below, up to how each
radius is found, and s enters only through which slice points a search
reaches.  On the slice psi is the identity, and D lies in B(0, R_tight),
inside the trivial chain's B(0, R_pad): by Schwarz-Pick that inclusion can
only shrink pseudo-hyperbolic distances, so at a slice point the trivial
chain's radius, and its image norm at every boundary point, never exceeds
the normalizing chain's.  The floor is the checked chains' best radius at
its argmin, a slice point, bit for bit.

On n = 2 it is a minimum over t in [0, (r/a)^{1/(2m)}] of the best radius
at b = (t, 0).  It does not depend on s, the grid size, the sample count
or the seed.  The search over t evaluates a grid, then solves for the
crossings of the two radii between its points (`_crossing_least`), where
the minimum lies on every table measured; each t costs one root solve of
S per chain.  Only the normalizing and tangent chains enter it, through the
`_squares` rows that `_chain_rows` builds for `squeeze_estimates` too,
from the affine step and the ball parameter c = step(b) that
`chain_family` computes at b.

On n >= 3 every value is a sampled estimate (kind "sampled"): the least
|phi_c(w / R)| over the points w of a boundary cloud, for the chain's
closing pair (R, c), an upper estimate of its radius up to the cloud's
rounding that converges to it from above as the sample count grows: a
cloud point lies off bD by rounding, and phi_c magnifies that offset by up
to (1 + |c|) / (1 - |c|), so on the ball, where every radius is 1, values
read a few ulps below it.  `squeeze_estimates` screens every chain over
one shared cloud, unmoved, in the closed form of `_screened_squares`
(Lagrange's identity as above, within a few ulps of the exact norm at each
sample), BLOCK (`util.BLOCK`) samples at a time; its minima are the
reported values.  The screen takes each contraction
to be z -> z / R: the tangent chain, the one chain with a centre and
scales, is built on n = 2 only, where nothing is screened.

On n >= 3 the floor minimizes the normalizing chain's estimate over the
slice images b = `normalize_point`(p).b of a grid of D^{s,r} in closed
form (`subdomain_grid`): D^{s,r} is the image of D under
w -> (delta_{rs}(w'), 1 - s + s w_n), so the estimation cloud's first
sphere points, each moved to a level t of D with P(t <= x) = x^Q,
Q = 1 + sum_k 1/m_k, the level law of a uniform sample, land in D^{s,r}
for every admissible s and r.  Each b costs one screen of its closing pair
(R_tight, b / R_tight).  Value and argmin equal the least of
`squeeze_estimates` over those slice images, bit for bit.

The floor is the one number of the `floor` experiment.  `analytic_floor`,
the gap between sampled level sets of P, has no proved meaning, and no
experiment calls it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from .automorphisms import EllipsoidAutomorphism, normalize_point
from .domain import GeneralEllipsoid, SubdomainParams
from .errors import ToleranceError
from .hermpoly import companion_roots
from .util import blocks, complex_sphere, philox

BASEPOINT_TOL = 1e-10
# the trivial chain's R_pad over R_tight.  The pad is load-bearing: it keeps
# the ball parameter p / R_pad 1% inside the sphere, where phi_c magnifies
# p's rounding by at most (1 + |c|) / (1 - |c|) < 201.  With R_tight itself,
# the trivial chain at the j = 10^4 term of `profile` on ball:2 centres p
# only to 1.1e-8, past BASEPOINT_TOL, and at j = 10^5 its radius reads R's
# last bits: 1 - 3.8e-6 at R = 1, where it is exactly 1, and 1 - 2.1e-5 at
# R = 1 + 2 ulps
TRIVIAL_PAD = 1.01
# sphere directions sampling the slice level sets of `analytic_floor`
ANALYTIC_FLOOR_SAMPLES = 2048
ANALYTIC_FLOOR_SEED = 11
# its gap search cuts each level set into blocks of this many points and
# measures every pair of the block pairs it cannot rule out; 16 prunes
# better than 32 and costs fewer Python steps than 8
GAP_BLOCK = 16
# block pairs measured at once, 256 kB per temporary array
GAP_CHUNK = 128
# `_least`: a grid of LEAST_GRID points, then zooms of LEAST_ZOOM points
# around each of its two best local minima; a zoom narrows its bracket
# (LEAST_ZOOM - 1) / 2 = 8-fold, so LEAST_ROUNDS = 12 take a grid step of
# 1/16 down to 2^-40.  It serves smooth minima only, where a step of 2^-40
# moves the value by about 2^-80: the trivial chain off the slice, and the
# slice floor's fallback bracket (`_crossing_least`).  Every other n = 2
# minimum is a root solve.  The slice floor's own search over t uses the
# grid too, whose LEAST_GRID points bracket the crossings of its two radii.
LEAST_GRID = 33
LEAST_ZOOM = 17
LEAST_ROUNDS = 12


@dataclass(frozen=True)
class Rescale:
    """Affine contraction z -> (L z - centre) / R, with L a diagonal of
    positive coordinate scales; with neither L nor centre it is z -> z / R,
    bit for bit."""

    R: float
    centre: Optional[np.ndarray] = None
    L: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.R <= 0:
            raise ValueError("rescale radius must be positive")

    def apply(self, weights, z: np.ndarray) -> np.ndarray:
        z = np.asarray(z, dtype=np.complex128)
        if self.L is not None:
            z = z * self.L
        if self.centre is not None:
            z = z - self.centre
        return z / self.R


@dataclass(frozen=True)
class BallAutomorphism:
    """The classical involution phi_c of the unit ball; phi_0 = -identity."""

    c: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.c, dtype=np.complex128)
        object.__setattr__(self, "c", c)
        if np.linalg.norm(c) >= 1.0:
            raise ValueError("ball automorphism parameter must satisfy |c| < 1")

    def apply(self, weights, z: np.ndarray) -> np.ndarray:
        z = np.asarray(z, dtype=np.complex128)
        c = self.c
        c2 = float(np.vdot(c, c).real)
        if c2 == 0.0:
            return -z
        s = np.sqrt(1.0 - c2)
        # elementwise, so a point's bits do not depend on the array's length
        ip = sum(z[..., k] * np.conj(ck) for k, ck in enumerate(c))
        proj = (ip / c2)[..., None] * c
        return (c - proj - s * (z - proj)) / (1.0 - ip)[..., None]


ChainStep = Union[EllipsoidAutomorphism, Rescale, BallAutomorphism]


@dataclass(frozen=True)
class EmbeddingChain:
    """Ordered injective holomorphic steps mapping the domain into the ball."""

    domain: GeneralEllipsoid
    steps: Tuple[ChainStep, ...]
    basepoint: np.ndarray
    label: str = "chain"

    def apply(self, z: np.ndarray) -> np.ndarray:
        out = np.asarray(z, dtype=np.complex128)
        weights = self.domain.P.weights
        for step in self.steps:
            out = step.apply(weights, out)
        return out

    def check_basepoint(self) -> float:
        err = float(np.linalg.norm(self.apply(self.basepoint.reshape(1, -1))[0]))
        if err > BASEPOINT_TOL:
            raise ToleranceError("basepoint_centering", err, BASEPOINT_TOL)
        return err


@dataclass(frozen=True)
class SqueezeEstimate:
    """The best chain radius of the strategy family at one point.

    `kind` says what `value` is.  "exact" (n = 2): the inscribed radius of
    `chain`, a float minimum of its closed form (module docstring), not
    certified; `samples` and `band` read 0.  "sampled" (n >= 3): the least
    |phi_c(w / R)| over a boundary cloud of `samples` points w, for the
    closing pair (R, c) of `chain`, each in closed form, an upper estimate
    of the chain's radius only up to the cloud's rounding (module
    docstring: `ball:3` values read a few ulps below their exact 1), with
    `band` its drop from the half-cloud minimum.
    Either way the chain's radius is a lower bound for the squeezing
    function.
    """

    point: np.ndarray
    value: float
    chain: EmbeddingChain
    samples: int
    band: float
    kind: str


def chain_family(D: GeneralEllipsoid, p: np.ndarray) -> List[EmbeddingChain]:
    """The estimator's strategy family at an interior point: trivial,
    normalize and, on n = 2, tangent (module docstring)."""
    p = np.asarray(p, dtype=np.complex128).reshape(D.n)
    if not bool(D.contains(p)):
        raise ValueError("basepoint is not inside the domain")
    chains = []

    R_tight = D.bounding_radius()
    R_pad = R_tight * TRIVIAL_PAD
    chains.append(EmbeddingChain(
        D, (Rescale(R_pad), BallAutomorphism(p / R_pad)), p, label="trivial"))

    psi = normalize_point(D, p).automorphism
    # the chain's own image of p, not normalize_point's b: next to the sphere
    # an ulp between the two is a real pseudo-hyperbolic offset.  Its z_n, a
    # rounding off 0, goes back on the slice: that offset is orthogonal to c,
    # where phi_c magnifies it only by 1 / sqrt(1 - |c|^2), and c_n = 0 keeps
    # the exact n = 2 rows on their root solve
    b = psi.apply(D.P.weights, p[None])[0]
    b[-1] = 0.0
    rescale = Rescale(R_tight)
    chains.append(EmbeddingChain(
        D, (psi, rescale, BallAutomorphism(rescale.apply(None, b))), p, label="normalize"))

    if D.n == 2:
        m, ell = _slice_scale(D)
        ball = _tangent_step(m, ell, b[0] / abs(b[0]) if b[0] != 0 else 1.0)
        chains.append(EmbeddingChain(
            D, (psi, ball, BallAutomorphism(ball.apply(None, b))), p, label="tangent"))
    return chains


def _tangent_step(m: int, ell: float, q1: complex) -> Rescale:
    """The tangent chain's affine step z -> (L z - (1 - m) q) / m, with
    q = (q1, 0), |q1| = 1, and L = diag(ell, 1)."""
    q = np.array([q1, 0.0], dtype=np.complex128)
    return Rescale(float(m), centre=(1 - m) * q, L=np.array([ell, 1.0]))


def _slice_scale(D: GeneralEllipsoid) -> Tuple[int, float]:
    """(m, a^{1/(2m)}) of an n = 2 domain, whose P is a |z_1|^{2m}."""
    (m,) = D.P.weights.m
    a = D.P.table.canonical[((m,), (m,))].real
    return m, a ** (1.0 / (2 * m))


def _least(f, grid: np.ndarray, n: int) -> Tuple[np.ndarray, np.ndarray]:
    """Per row i < n, the least value of f(., i) over [grid[0], grid[-1]]
    and a point where it is taken.

    `f(x, rows)` evaluates row rows[k]'s function at the points x[k, :].
    Each row's two best local minima on the increasing `grid` are refined
    by LEAST_ROUNDS zooms: LEAST_ZOOM points spread over the bracket of the
    best point's two neighbours, whose best point centres the next
    bracket.  Brackets keep their end points, so a minimum at an end of
    the grid is found exactly.
    """
    values = f(np.broadcast_to(grid, (n, grid.size)), np.arange(n))
    padded = np.pad(values, ((0, 0), (1, 1)), constant_values=np.inf)
    local = np.where((values <= padded[:, :-2]) & (values <= padded[:, 2:]), values, np.inf)
    j = np.argsort(local, axis=1, kind="stable")[:, :2].ravel()
    rows = np.arange(j.size) // 2
    lo, hi = grid[np.maximum(j - 1, 0)], grid[np.minimum(j + 1, grid.size - 1)]
    t = np.linspace(0.0, 1.0, LEAST_ZOOM)
    for _ in range(LEAST_ROUNDS):
        x = np.minimum(lo[:, None] + (hi - lo)[:, None] * t, hi[:, None])
        values = f(x, rows)
        k = values.argmin(axis=1)[:, None]
        lo = np.take_along_axis(x, np.maximum(k - 1, 0), axis=1)[:, 0]
        hi = np.take_along_axis(x, np.minimum(k + 1, LEAST_ZOOM - 1), axis=1)[:, 0]
    values, x = values.reshape(-1, 2 * LEAST_ZOOM), x.reshape(-1, 2 * LEAST_ZOOM)
    k = values.argmin(axis=1)[:, None]
    return np.take_along_axis(values, k, axis=1)[:, 0], np.take_along_axis(x, k, axis=1)[:, 0]


def _flat_squares(m: int, scale, shift, R, d) -> np.ndarray:
    """Squared radius of the `_squares` rows with k_2 = 0: each row's least
    value of its form at x = -1, x = 1 and the real parts of the roots of
    S, clipped to [-1, 1].

    S is solved divided by e > 0, with h = a_1 g_0 - g_1 a_0 written as
    scale R e, free of that difference's cancellation:

        S / e = (1 - m) g_1 x^{2m} - m g_0 x^{2m-1} + scale^2 x
                + scale (k_1 (1/R - R) + R - shift).

    Its leading coefficient vanishes for m = 1 and at c = 0, so each row is
    solved at its true degree, the rows of one degree by one batched
    companion eigenvalue call.  The form is N / G^2 below 1/2, where a
    radius near 0 keeps its relative accuracy, and
    1 - (1 - |c|^2)(1 - |u|^2) / G^2 above, where
    1 - |u|^2 = w (2 - w) - |u_2|^2 and
    1 - x^{2m} = (1 - x)(1 + x)(1 + x^2 + ... + x^{2m-2}) keep a radius
    near 1 within an ulp.
    """
    scale, shift, R, d = (v[:, None] for v in (scale, shift, R, d))
    k1 = 1.0 - d
    g0, g1 = d + k1 * shift / R, -k1 * scale / R
    coef = np.zeros((len(R), 2 * m + 1))
    coef[:, :1] = (1 - m) * g1
    coef[:, 1:2] -= m * g0
    coef[:, -2:-1] += scale * scale
    coef[:, -1:] = scale * (k1 * (1.0 / R - R) + R - shift)
    nonzero = coef != 0.0
    degree = np.where(nonzero.any(axis=1), 2 * m - nonzero.argmax(axis=1), 0)
    x = np.ones((len(R), 2 * m + 2))
    x[:, 0] = -1.0
    for k in np.unique(degree[degree > 0]):
        rows = np.flatnonzero(degree == k)
        x[rows, 2:k + 2] = np.clip(companion_roots(coef[rows, 2 * m - k:]).real, -1.0, 1.0)
    w = (shift - scale * x) / R
    x2, u2sq = x * x, 1.0
    for _ in range(m - 1):
        u2sq = 1.0 + x2 * u2sq
    u2sq = (1.0 - x) * (1.0 + x) * u2sq / (R * R)
    c_gap, G2 = d * (2.0 - d), (d + w * k1) ** 2
    defect = c_gap * (w * (2.0 - w) - u2sq) / G2
    return np.where(defect < 0.5, 1.0 - defect, ((d - w) ** 2 + c_gap * u2sq) / G2).min(axis=1)


def _squares(D: GeneralEllipsoid, scale, shift, R, d, k2) -> np.ndarray:
    """Squared inscribed radius of n = 2 chains ending in Rescale and
    phi_c, one per row of (scale, shift, R, 1 - |c_1|, |c_2|).

    The minimum lies on the real segment x in [-1, 1] of the coordinates
    L z along c_1's direction, with z_2 along c_2 (module docstring).  There
    |z_2| = sqrt(1 - x^{2m}), and the chain's affine image u has
    u_1 = 1 - w along c_1, w = (shift - scale x) / R, and |u_2| = |z_2| / R
    along c_2.  With k = (|c_1|, |c_2|), d = 1 - k_1, A = u_1 - k_1 = d - w
    and B = u_2 - k_2,

        |phi_c(u)|^2 = (A^2 (1 - k_2^2) + B^2 d (2 - d) + 2 A B k_1 k_2)
                       / (d + w k_1 - u_2 k_2)^2.

    The numerator is Lagrange's identity for |u - k|^2 - |u_1 k_2 - u_2 k_1|^2,
    so a radius near 0 keeps its accuracy, and writing u_1 - k_1,
    1 - k_1^2 and 1 - u_1 k_1 through d and w keeps it where c nears the
    sphere.

    A row with k_2 = 0 is minimized in closed form (`_flat_squares`).  There
    A = a_0 + a_1 x and G = d + w k_1 = g_0 + g_1 x, with a_0 = d - shift / R,
    a_1 = scale / R, g_0 = d + k_1 shift / R and g_1 = -k_1 scale / R.  With
    e = d (2 - d) / R^2 the form is N / G^2, N = A^2 + e (1 - x^{2m}), so
    its minimum is taken at x = -1, x = 1 or a root of

        S(x) = (N' G - 2 N G') / 2
             = h (a_0 + a_1 x) - g_1 e - m e g_0 x^{2m-1} + (1 - m) e g_1 x^{2m},

    h = a_1 g_0 - g_1 a_0.  A row with k_2 > 0 keeps sqrt(1 - x^{2m}) in
    its stationary condition, and `_least` minimizes it.
    """
    (m,) = D.P.weights.m

    def f(x, rows):
        w = (shift[rows, None] - scale[rows, None] * x) / R[rows, None]
        # (x^2)^m: numpy's power is many times slower on negative bases
        u2 = np.sqrt(1.0 - (x * x) ** m) / R[rows, None]
        d1, a2 = d[rows, None], k2[rows, None]
        A, B = d1 - w, u2 - a2
        return ((A * A * (1.0 - a2 * a2) + B * B * d1 * (2.0 - d1) + 2.0 * A * B * (1.0 - d1) * a2)
                / (d1 + w * (1.0 - d1) - u2 * a2) ** 2)

    out = np.empty(len(R))
    flat, rest = np.flatnonzero(k2 == 0.0), np.flatnonzero(k2 != 0.0)
    if flat.size:
        out[flat] = _flat_squares(m, scale[flat], shift[flat], R[flat], d[flat])
    if rest.size:
        grid = np.linspace(-1.0, 1.0, LEAST_GRID)
        out[rest] = _least(lambda x, rows: f(x, rest[rows]), grid, rest.size)[0]
    return out


def _chain_rows(ell: float, step: Rescale, c: np.ndarray) -> np.ndarray:
    """`_squares` rows (scale, shift, R, 1 - |c_1|, |c_2|) of n = 2 chains
    ending in `step` and phi_c, one per row of c, shape (N, 2).

    Trivial and normalize scale z_1 by 1, so w = 1 - x / (a^{1/(2m)} R).
    The tangent step's sphere passes through q, where x = 1, so
    w = (1 - x) / m, computed from 1 - x without rounding near q.
    """
    rows = np.empty((len(c), 5))
    rows[:, :3] = (1.0 / ell, step.R, step.R) if step.centre is None else (1.0, 1.0, step.R)
    rows[:, 3:] = np.abs(c)
    rows[:, 3] = 1.0 - rows[:, 3]
    return rows


def _exact_squares(D: GeneralEllipsoid, chains: Sequence[EmbeddingChain]) -> np.ndarray:
    """Squared inscribed radius of each chain of n = 2 families (`_squares`)."""
    _, ell = _slice_scale(D)
    rows = np.array([_chain_rows(ell, chain.steps[-2], chain.steps[-1].c[None])[0]
                     for chain in chains])
    return _squares(D, *rows.reshape(-1, 5).T)


def _screened_squares(cloud: np.ndarray, pairs: Sequence[Tuple[float, np.ndarray]]) -> np.ndarray:
    """Squared norms |phi_c(w / R)|^2 of the cloud's points w, one row per
    closing pair (R, c), in closed form.

    With u = w / R, e = u - c and g = 1 - |c|^2, Lagrange's identity (as
    in `_squares`) gives

        |phi_c(u)|^2 = (g |e|^2 + |<e, c>|^2) / |g - <e, c>|^2.

    The numerator is a sum of nonnegative terms, and the denominator is
    |1 - <u, c>|^2, which is small only where e is, so the value keeps a
    few ulps of relative accuracy near 0 and near 1 alike: the form
    1 - (1 - |c|^2)(1 - |u|^2) / |1 - <u, c>|^2 loses 1 - |u|^2 to
    rounding, a loss phi_c magnifies next to the sphere.  It is evaluated
    on R e = w - R c, with g and R g rounded from their exact values and
    R c carried as two floats, so R e keeps its relative accuracy where w
    nears R c.  Each row is filled BLOCK samples at a time, so its
    temporaries stay one block long; every value is real arithmetic on its
    own sample, so neither the blocks nor the cloud's length change a bit.
    """
    out = np.empty((len(pairs), len(cloud)))
    for row, (R, c) in zip(out, pairs):
        R = Fraction(R)
        parts = [x for ck in c for x in (ck.real, ck.imag)]
        turned = [x for ck in c for x in (-ck.imag, ck.real)]
        gap = 1 - sum(Fraction(x) ** 2 for x in parts)
        g, Rg = float(gap), float(R * gap)
        Rc = [R * Fraction(x) for x in parts]
        shifts = [(float(y), float(y - Fraction(float(y)))) for y in Rc]
        for rows in blocks(len(cloud)):
            coords = [x for wk in cloud[rows].T for x in (wk.real, wk.imag)]
            e = [(x - hi) - lo for x, (hi, lo) in zip(coords, shifts)]
            re = sum(x * y for x, y in zip(e, parts))
            im = sum(x * y for x, y in zip(e, turned))
            row[rows] = (g * sum(x * x for x in e) + re * re + im * im) / ((Rg - re) ** 2 + im * im)
    return out


def _checked_family(D: GeneralEllipsoid, p: np.ndarray) -> List[EmbeddingChain]:
    """The strategy family at p, every chain's centering checked."""
    family = chain_family(D, p)
    for chain in family:
        chain.check_basepoint()
    return family


def squeeze_estimates(D: GeneralEllipsoid, points: np.ndarray, count: int = 1 << 16,
                      seed: int = 0) -> List[SqueezeEstimate]:
    """Best inscribed radius over the strategy family at each point.

    `points` holds the basepoints, shape (G, n) or a sequence of n-vectors.
    Every chain of every family is checked for centering, and the first
    chain of the family with the largest radius wins.  Each value never
    exceeds one.

    On n = 2 each radius is exact (`_exact_squares`, kind "exact"), and
    `count` and `seed` are unused.  On n >= 3 each is sampled (kind
    "sampled"): all basepoints share one boundary cloud, and each chain's
    value is its closing pair's least closed-form norm over the unmoved
    cloud (`_screened_squares`).  A sample's norm depends on that sample
    alone, and the cloud is prefix-stable with count-independent rescale
    radii, so a sampled value can only decrease when the sample count
    grows, bit for bit.  The sampling band reports the drop from the
    half-count estimate to the full-count estimate.
    """
    points = np.asarray(points, dtype=np.complex128).reshape(-1, D.n)
    families = [_checked_family(D, p) for p in points]
    chains = [chain for family in families for chain in family]
    if D.n == 2:
        full = half = _exact_squares(D, chains)
        samples, kind = 0, "exact"
    else:
        cloud, prefix = D.boundary_cloud(count, seed), max(1, count // 2)
        rows = (_screened_squares(cloud, [(chain.steps[-2].R, chain.steps[-1].c)])[0]
                for chain in chains)
        full, half = np.array([(q.min(), q[:prefix].min()) for q in rows]).reshape(-1, 2).T
        samples, kind = int(count), "sampled"
    minima = iter(zip(*np.sqrt(np.maximum([full, half], 0.0)).tolist()))
    estimates = []
    for p, family in zip(points, families):
        pairs = [next(minima) for _ in family]
        best = max(range(len(family)), key=lambda j: pairs[j][0])
        value, value_half = pairs[best]
        estimates.append(SqueezeEstimate(
            point=p.copy(),
            value=min(value, 1.0),
            chain=family[best],
            samples=samples,
            band=max(value_half - value, 0.0),
            kind=kind,
        ))
    return estimates


def squeeze_lower_bound(D: GeneralEllipsoid, p: np.ndarray, count: int = 1 << 16,
                        seed: int = 0) -> SqueezeEstimate:
    """Best inscribed-radius estimate over the strategy family at one point;
    see :func:`squeeze_estimates`."""
    return squeeze_estimates(D, [p], count, seed)[0]


@dataclass(frozen=True)
class FloorReport:
    """Squeezing floor over the subdomain D^{s,r}: the slice floor on every n.

    psi carries D^{s,r} onto the slice set {b : b_n = 0, P(b') < r}, so the
    floor is the least best chain radius over slice points (module
    docstring); the trivial chain's radius lies below the normalizing one
    there, by Schwarz-Pick.  `value` is min(1, the best radius of the
    chains that `chain_family` builds and checks at `argmin`), bit for bit,
    and `argmin` is that slice point, not a point of D^{s,r}.  `kind` says
    how the radii were found:

    "exact" (n = 2): the least over the whole slice set of the larger of
    the normalizing and tangent radii, float minima that are not
    certified, taken over a grid, the ends of the slice set and the
    crossings of the two radii (`_crossing_least`, which rests on the
    measured fact that the minimum lies at one of them); `grid_count` and
    `samples` read 0, and neither s nor the seed moves the value.

    "sampled" (n >= 3): the least normalizing estimate over the slice
    images of a grid of `grid_count` points of D^{s,r} (`subdomain_grid`),
    each over one boundary cloud of `samples` points.  Each value is an
    upper estimate of the chain's radius only up to the cloud's rounding
    (see :class:`SqueezeEstimate`; `ball:3` floors read a few ulps below
    their exact 1), and the least over finitely many slice points is a
    heuristic stand-in for the slice floor, not a certified constant.
    """

    s: float
    r: float
    value: float
    argmin: np.ndarray
    grid_count: int
    samples: int
    seed: int
    kind: str


def subdomain_grid(D: GeneralEllipsoid, sp: SubdomainParams, grid_count: int,
                   seed: int = 0) -> np.ndarray:
    """Seeded interior points of D^{s,r}, in closed form and prefix-stable
    in `grid_count`.

    D^{s,r} is the image of D under w -> (delta_{rs}(w'), 1 - s + s w_n),
    and D itself is swept by the Delta_t images of its boundary, t in
    (0, 1).  Point i is therefore

        p_i = (delta_{r s t_i}(xi_i'), 1 - s + s sqrt(t_i) xi_{i,n}),

    with xi_i the i-th point of `D.boundary_cloud(grid_count, seed)`, so
    the grid's sphere points are the first points of the estimation cloud
    `squeeze_estimates` draws with the same seed.  p_i lies on the level
    |z_n - (1 - s)|^2 + (s/r) P(z') = s^2 t_i of D^{s,r}.  Lebesgue measure
    scales by t^Q under Delta_t, Q = 1 + sum_k 1/m_k, so t_i = U_i^{1/Q}
    with U_i uniform from `philox(seed)` gives the levels the law they have
    in a uniform sample of D^{s,r}: P(t <= x) = x^Q.  The sphere points keep
    the cloud's law, so the grid is uniform in D^{s,r} when D is a ball and
    otherwise only in its levels.
    """
    q = 1 + sum(Fraction(1, mk) for mk in D.P.weights.m)
    t = philox(seed).random(grid_count) ** float(1 / q)
    p = D.boundary_cloud(grid_count, seed)
    p[:, :-1] = D.P.weights.dilate(sp.r * sp.s * t, p[:, :-1])
    p[:, -1] = sp.b + sp.s * np.sqrt(t) * p[:, -1]
    return p


def gamma_floor(D: GeneralEllipsoid, s: float, r: float, grid_count: int = 200,
                count: int = 1 << 14, seed: int = 0) -> FloorReport:
    """Squeezing floor over D^{s,r} (:class:`FloorReport`): the least best
    chain radius over slice points b.

    On n = 2 the search runs over the whole slice set, t in
    [0, (r/a)^{1/(2m)}] at b = (t, 0) (`_slice_floor`); s, `grid_count`,
    `count` and `seed` do not enter it.

    On n >= 3 it runs over the slice images b = `normalize_point`(p).b of
    the points p of `subdomain_grid`, and each b costs one screen of the
    normalizing chain's closing pair (R_tight, b / R_tight) over
    `D.boundary_cloud(count, seed)`, whose first sphere points the grid
    dilates, so no second cloud is drawn.  The first b with the least value
    is the argmin.  Value and argmin are those of the least
    `squeeze_estimates` value over the slice images, bit for bit: the
    trivial chain's image norms lie at or below the normalizing chain's
    there.

    On every n the chains of `chain_family` at the argmin are checked for
    centering.
    """
    if D.n == 2:
        value, b = _slice_floor(D, r)
        grid_count = count = 0
    else:
        grid = subdomain_grid(D, SubdomainParams(s, r), grid_count, seed)
        slice_points = np.array([normalize_point(D, p).b for p in grid])
        cloud, R = D.boundary_cloud(count, seed), D.bounding_radius()
        squares = [_screened_squares(cloud, [(R, c)])[0].min()
                   for c in Rescale(R).apply(None, slice_points)]
        g = int(np.argmin(squares))
        value, b = float(np.sqrt(squares[g])), slice_points[g]
    _checked_family(D, b)
    return FloorReport(s=s, r=r, value=min(value, 1.0), argmin=b, grid_count=grid_count,
                       samples=count, seed=seed, kind="exact" if D.n == 2 else "sampled")


def _slice_floor(D: GeneralEllipsoid, r: float) -> Tuple[float, np.ndarray]:
    """The n = 2 floor and its argmin: the least over t in
    [0, (r/a)^{1/(2m)}] of the larger of the normalizing and tangent radii
    at b = (t, 0).

    In the coordinates L z, tau = a^{1/(2m)} t runs over [0, r^{1/(2m)}].
    psi is the identity on the slice, so the chains of `chain_family` at
    b = (tau / a^{1/(2m)}, 0) end in its two affine steps, Rescale(R_tight)
    and the tangent step at q = (1, 0), and phi_c with c = step(b), the
    arithmetic `chain_family` uses; `_chain_rows` turns them into the
    `_squares` rows `squeeze_estimates` evaluates at b.  The trivial chain
    is left out: by Schwarz-Pick its radius at b never exceeds the
    normalizing chain's (module docstring).  Both chains have c_2 = 0, so
    each tau is evaluated by the root solve of `_flat_squares` that
    `squeeze_estimates` takes at b too.  `_crossing_least` minimizes the
    larger squared radius from the grid of [0, 1] cut at r^{1/(2m)}, which
    joins the grid, and the crossings of the two radii inside it, where the
    minimum lies by a measured fact, not a proved one; the floor is the
    least value it met, at the least tau that holds it.  At r = 1
    the cut is the boundary point, where the tangent chain's c reaches the
    sphere, so the grid stops short of it.
    """
    m, ell = _slice_scale(D)
    steps = (Rescale(D.bounding_radius()), _tangent_step(m, ell, 1.0))
    top = r ** (1.0 / (2 * m))
    grid = np.linspace(0.0, 1.0, LEAST_GRID)
    grid = np.append(grid[grid < top], top)
    grid = grid[grid < 1.0]

    def squares(tau):
        b = np.zeros((tau.size, 2), dtype=np.complex128)
        b[:, 0] = tau / ell
        table = np.concatenate([_chain_rows(ell, step, step.apply(None, b)) for step in steps])
        return _squares(D, *table.T).reshape(2, -1)

    square, tau = _crossing_least(squares, grid)
    return float(np.sqrt(max(square, 0.0))), np.array([tau / ell, 0.0], dtype=np.complex128)


def _crossing_least(pair, grid: np.ndarray) -> Tuple[float, float]:
    """The least value of F = max(N, T) over [grid[0], grid[-1]] that the
    search meets, and the least tau where it is met; `pair(tau)` returns
    (N, T) at the points tau, shape (2, len(tau)).

    The candidates are the increasing `grid`, both ends included, and every
    tau that a bracketed secant on N - T visits inside each grid interval
    where N - T changes sign: Illinois steps until no float lies strictly
    inside the bracket.  Next to the crossing the secant point can round
    onto an end of the bracket; it then takes the float next to that end
    (on the tables below a floor then takes at most 12 `pair` calls, and
    18 when such a step bisects instead).  Each step evaluates N and T at
    one tau.

    This relies on a measured fact, not a proved one: F's minimum lies at
    an end or where N and T cross.  On a |z_1|^{2m} with m = 1 ... 6 and
    a in {0.1, 0.5, 1, 3}, over 20 000 points of tau, T never falls, N
    never rises (a >= 1) or rises then falls (a < 1; on m = 1 it is flat up
    to rounding), and N - T changes sign at most once.  Should the grid's
    least F sit at an interior point with no sign change of N - T next to
    it (never seen), `_least` searches the bracket of its two neighbours as
    well.
    """
    N, T = pair(grid)
    taus, values = [grid], [np.maximum(N, T)]
    gap = N - T
    change = np.flatnonzero(np.sign(gap[:-1]) * np.sign(gap[1:]) < 0)
    j = int(values[0].argmin())
    if 0 < j < grid.size - 1 and not np.isin(j, [change, change + 1]).any():
        square, x = _least(lambda x, rows: pair(x.ravel()).max(axis=0).reshape(x.shape),
                           grid[j - 1:j + 2], 1)
        taus.append(x)
        values.append(square)
    for i in change:
        a, b, fa, fb, side = grid[i], grid[i + 1], gap[i], gap[i + 1], 0
        while True:
            # every step shrinks the bracket, so the loop ends
            x = np.clip(b - fb * (b - a) / (fb - fa), np.nextafter(a, b), np.nextafter(b, a))
            if not a < x < b:
                break
            N, T = pair(np.array([x]))
            taus.append([x])
            values.append(np.maximum(N, T))
            fx = N[0] - T[0]
            # x replaces the end whose sign it shares; an end kept twice in a
            # row has its value halved (Illinois), so the secant point crosses.
            # Where N = T at x the bracket closes
            if np.sign(fx) == np.sign(fb):
                if side < 0:
                    fa *= 0.5
                b, fb, side = x, fx, -1
            elif np.sign(fx) == np.sign(fa):
                if side > 0:
                    fb *= 0.5
                a, fa, side = x, fx, 1
            else:
                break
    taus, values = np.concatenate(taus), np.concatenate(values)
    best = values.min()
    return float(best), float(taus[values == best].min())


def _squared_distances(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """|x - y|^2 over the last axis, broadcasting the others, with the
    squares summed in coordinate order."""
    out = 0.0
    for k in range(x.shape[-1]):
        dk = x[..., k] - y[..., k]
        out = out + dk * dk
    return out


def _closest_pair_squared(inner: np.ndarray, outer: np.ndarray) -> float:
    """min |inner_i - outer_j|^2 over all pairs of rows, exactly.

    Row i of both sets comes from one direction, so the minimum over the
    pairs (i, i) bounds the answer from above.  Each set is cut into blocks
    of GAP_BLOCK consecutive rows, and a block pair whose bounding boxes lie
    farther apart than the bound cannot hold the closest pair: rounding is
    monotone, so a box distance never exceeds a pair distance it bounds, and
    the 1e-9 relative slack is a guard on top.  Every pair of the remaining
    block pairs is measured, so the result is the all-pairs minimum bit for
    bit.
    """
    bound = float(_squared_distances(inner, outer).min()) * (1.0 + 1e-9)
    d = inner.shape[1]
    a = inner.reshape(-1, GAP_BLOCK, d)
    b = outer.reshape(-1, GAP_BLOCK, d)
    lo_a, hi_a = a.min(axis=1)[:, None], a.max(axis=1)[:, None]
    lo_b, hi_b = b.min(axis=1)[None], b.max(axis=1)[None]
    box = np.maximum(np.maximum(lo_b - hi_a, lo_a - hi_b), 0.0)
    ia, ib = np.nonzero(_squared_distances(box, np.zeros(d)) <= bound)
    return min(float(_squared_distances(a[ia[lo:lo + GAP_CHUNK], :, None],
                                        b[ib[lo:lo + GAP_CHUNK], None]).min())
               for lo in range(0, len(ia), GAP_CHUNK))


def analytic_floor(D: GeneralEllipsoid, r: float) -> float:
    """Distance between the slice level sets {P = r} and {P = 1} over twice
    the domain diameter.

    A closed-form-style floor candidate: slice images of subdomain points
    stay below the level r while the boundary sits at level 1, and the gap
    between the two level sets measures how far those images are from the
    boundary.  Its constants are a modeling choice, and nothing proves that
    it bounds the squeezing function, so no experiment calls it; it stays
    only while the benchmark tracer (`perfbench/tracer.py`) wraps it by
    name.  The level sets are sampled, by anisotropic dilation of
    ANALYTIC_FLOOR_SAMPLES sphere directions; the gap between the two
    samples is exact, the smallest of all their pair distances
    (`_closest_pair_squared`).
    """
    u = complex_sphere(ANALYTIC_FLOOR_SAMPLES, D.n - 1, ANALYTIC_FLOOR_SEED)
    pu = D.P.eval(u)
    # ordered by arg u_1, so consecutive directions tend to be close
    order = np.argsort(np.angle(u[:, 0]), kind="stable")
    inner = D.P.weights.dilate(r / pu, u)[order]
    outer = D.P.weights.dilate(1.0 / pu, u)[order]
    # viewed as real (re, im) coordinates
    gap = float(np.sqrt(_closest_pair_squared(inner.view(np.float64), outer.view(np.float64))))
    delta = gap / 2.0
    diam = 2.0 * D.bounding_radius()  # upper bound keeps the quotient a floor
    return delta / diam
