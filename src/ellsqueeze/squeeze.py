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

  trivial    rescale by the bounding radius padded by 1%, then center
             the image of p;
  normalize  move p to the slice {z_n = 0} with the explicit
             automorphism psi, rescale by the proved bound for the sup norm
             of the domain (`GeneralEllipsoid.bounding_radius` with no
             margin), then center the image b = psi(p);
  tangent    n = 2 only: psi, then z -> (L z - (1 - m) q) / m with
             L z_1 = a^{1/(2m)} z_1 and q = (b_1 / |b_1|, 0) (q = (1, 0) when
             b_1 = 0), then center.  In the coordinates L z the domain is
             {|z_2|^2 + |z_1|^{2m} < 1}, which lies in the ball of radius m
             around (1 - m) q: with r = |z_1|, |z - (1 - m) q|^2 is at most
             (r + m - 1)^2 + 1 - r^{2m} <= m^2.  That ball touches the
             boundary at q with the boundary's own complex-tangential
             curvature, so the radius tends to 1 as b tends to q.

Each affine step maps D into the unit ball, so each chain's inscribed
radius is a lower bound for the squeezing function.

On n = 2 the radii are exact.  Every n = 2 table is a |z_1|^{2m} (the
weight rule leaves no other term), so D is invariant under the torus
z_k -> e^{i theta_k} z_k, and psi maps the boundary bD onto itself: a
chain's radius is the minimum over bD of the closed form above, with the
leading psi dropped.  That minimum lies on one real segment:

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

`gamma_floor` on n = 2 is the slice floor.  psi carries a point p of
D^{s,r} to b with b_2 = 0 and P(b_1) = P(p_1) / (1 - |p_2|^2) < r, and
every such b is reached; the squeezing function is psi-invariant.  So the
least best radius over {b : b_2 = 0, P(b_1) < r}, a minimum over
t in [0, (r/a)^{1/(2m)}] of the best radius at b = (t, 0), bounds the
squeezing function on D^{s,r} from below (up to its float minima).  It
does not depend on s, the grid size, the sample count or the seed.
`_least` searches t, and each t costs one root solve of S per chain.  Only
the normalizing and tangent chains enter it, through the `_squares` rows
that `_chain_rows` builds for `squeeze_estimates` too, from the affine step
and the ball parameter c = step(b) that `chain_family` computes at b: the
floor is the checked chains' best radius at its argmin, bit for bit.  On
the slice psi is the identity, and D lies in B(0, R_tight), inside the
trivial chain's B(0, R_pad): by Schwarz-Pick that inclusion can only
shrink pseudo-hyperbolic distances, so at a slice point the trivial
chain's radius never exceeds the normalizing chain's.

On n >= 3 every value is a sampled estimate (kind "sampled"): the
minimum image norm over a boundary cloud, an upper estimate of a chain's
inscribed radius that converges to it from above as the sample count
grows (all step maps extend continuously to the closed domain).
`squeeze_estimates` evaluates the family for many basepoints over one
shared cloud; a closed form of |phi_c| (`_screened_squares`, Lagrange's
identity as above, within a few ulps of the exact norm at each sample)
screens all samples for a basepoint's whole family at once, BLOCK
(`util.BLOCK`) samples at a time, so a chain's temporaries stay one block
long however large the cloud.  Its minima are the reported values.  The
screen takes each contraction to be z -> z / R: the tangent chain, the one
chain with a centre and scales, is built on n = 2 only, where nothing is
screened.

`gamma_floor` on n >= 3 minimizes those estimates over a grid of D^{s,r}
in closed form (`subdomain_grid`): D^{s,r} is the image of D under
w -> (delta_{rs}(w'), 1 - s + s w_n), so the estimation cloud's first
sphere points, each moved to a level t of D with P(t <= x) = x^Q,
Q = 1 + sum_k 1/m_k, the level law of a uniform sample, land in D^{s,r}
for every admissible s and r.  It finds the minimum by bound: a grid value
is the largest of its chains' minima, so the trivial chain's minimum,
which needs no domain automorphism, bounds it from below, and the
normalizing chain is screened only at points whose bound lies below the
least value found so far.  Value and argmin equal the least of
`squeeze_estimates` over the grid, bit for bit.

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
# (LEAST_ZOOM - 1) / 2 = 8-fold, so LEAST_ROUNDS = 16 take a grid step of
# 1/16 down to 2^-52, the float spacing at 1: the slice floor's minimum can
# sit at a kink, where the two radii cross and the floor has slope about
# 0.65 on either side, so its value is only as close as the zoom gets.  It
# minimizes the trivial chain off the slice and the slice floor over t;
# every other n = 2 minimum is a root solve.
LEAST_GRID = 33
LEAST_ZOOM = 17
LEAST_ROUNDS = 16


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
    certified; `samples` and `band` read 0.  "sampled" (n >= 3): the
    minimum image norm of `chain` over a boundary cloud of `samples`
    points, each norm in closed form, an upper estimate of the chain's
    inscribed radius, with `band` its drop from the half-cloud minimum.
    Either way the chain's radius is a lower bound for the squeezing
    function.
    """

    point: np.ndarray
    value: float
    chain: EmbeddingChain
    samples: int
    band: float
    kind: str


def chain_norms_at(chain: EmbeddingChain, points: np.ndarray) -> np.ndarray:
    """Norms of the chain images of a point set, through the explicit step maps.

    No estimate reads it: the screen's closed form (`_screened_squares`)
    gives every reported norm.  It is the explicit reference for that form.
    Chains are pure compositions, so evaluating a family member g on a
    transported cloud psi(Xi) gives bit-identical values to evaluating the
    precomposed chain g o psi on Xi.
    """
    return np.linalg.norm(chain.apply(points), axis=-1)


def chain_family(D: GeneralEllipsoid, p: np.ndarray) -> List[EmbeddingChain]:
    """The estimator's strategy family at an interior point: trivial,
    normalize and, on n = 2, tangent (module docstring)."""
    p = np.asarray(p, dtype=np.complex128).reshape(D.n)
    if not bool(D.contains(p)):
        raise ValueError("basepoint is not inside the domain")
    chains = []

    R_pad = D.bounding_radius()
    c_triv = p / R_pad
    chains.append(EmbeddingChain(
        D, (Rescale(R_pad), BallAutomorphism(c_triv)), p, label="trivial"))

    norm = normalize_point(D, p)
    R_tight = D.bounding_radius(margin=0.0)
    image = norm.b / R_tight
    chains.append(EmbeddingChain(
        D,
        (norm.automorphism, Rescale(R_tight), BallAutomorphism(image)),
        p,
        label="normalize"))

    if D.n == 2:
        m, ell = _slice_scale(D)
        b1 = norm.b[0]
        ball = _tangent_step(m, ell, b1 / abs(b1) if b1 != 0 else 1.0)
        chains.append(EmbeddingChain(
            D,
            (norm.automorphism, ball, BallAutomorphism(ball.apply(None, norm.b))),
            p,
            label="tangent"))
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


def _screened_squares(D: GeneralEllipsoid, cloud: np.ndarray,
                      chains: Sequence[EmbeddingChain]) -> np.ndarray:
    """Squared image norms of a cloud under each chain, in closed form.

    Every chain must end in the plain contraction z -> z / R, Rescale(R)
    with neither centre nor scales, then phi_c: the trivial and
    normalizing chains do, and the tangent chain is built on n = 2 only,
    which is never screened.  The steps before that pair run through their
    own maps, giving w, one row per chain, so chains of different shapes
    share one call.  With u = w / R, e = u - c and g = 1 - |c|^2, Lagrange's
    identity (as in `_squares`) gives

        |phi_c(u)|^2 = (g |e|^2 + |<e, c>|^2) / |g - <e, c>|^2.

    The numerator is a sum of nonnegative terms, and the denominator is
    |1 - <u, c>|^2, which is small only where e is, so the value keeps a
    few ulps of relative accuracy near 0 and near 1 alike: the form
    1 - (1 - |c|^2)(1 - |u|^2) / |1 - <u, c>|^2 loses 1 - |u|^2 to
    rounding, a loss phi_c magnifies next to the sphere.  It is evaluated
    on R e = w - R c, with g and R g rounded from their exact values and
    R c carried as two floats, so R e keeps its relative accuracy where w
    nears R c.  Each row is filled BLOCK samples at a time, so the lead
    steps' temporaries stay one block long; after them every value is real
    arithmetic on its own sample, so neither the blocks nor the cloud's
    length change a bit.
    """
    weights = D.P.weights
    out = np.empty((len(chains), len(cloud)))
    for row, chain in zip(out, chains):
        *lead, rescale, ball = chain.steps
        R = Fraction(rescale.R)
        parts = [x for ck in ball.c for x in (ck.real, ck.imag)]
        turned = [x for ck in ball.c for x in (-ck.imag, ck.real)]
        gap = 1 - sum(Fraction(x) ** 2 for x in parts)
        g, Rg = float(gap), float(R * gap)
        Rc = [R * Fraction(x) for x in parts]
        shifts = [(float(y), float(y - Fraction(float(y)))) for y in Rc]
        for rows in blocks(len(cloud)):
            w = cloud[rows]
            for step in lead:
                w = step.apply(weights, w)
            coords = [x for wk in w.T for x in (wk.real, wk.imag)]
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


def _checked_families(D: GeneralEllipsoid, points: np.ndarray, count: int, seed: int):
    """Each basepoint's checked strategy family, and the screen of chains
    over the shared cloud `D.boundary_cloud(count, seed)`: each chain's
    least image norm (`_screened_squares`) over the whole cloud and over its
    half prefix."""
    cloud = D.boundary_cloud(count, seed)
    half = max(1, len(cloud) // 2)
    families = [_checked_family(D, p) for p in points]

    def screen(chains):
        q = _screened_squares(D, cloud, chains)
        norms = np.sqrt([q.min(axis=1), q[:, :half].min(axis=1)])
        return [(float(full), float(part)) for full, part in norms.T]

    return families, screen


def squeeze_estimates(D: GeneralEllipsoid, points: np.ndarray, count: int = 1 << 16,
                      seed: int = 0) -> List[SqueezeEstimate]:
    """Best inscribed radius over the strategy family at each point.

    `points` holds the basepoints, shape (G, n) or a sequence of n-vectors.
    Every chain of every family is checked for centering, and the first
    chain of the family with the largest radius wins.  Each value never
    exceeds one.

    On n = 2 each radius is exact (`_exact_squares`, kind "exact"), and
    `count` and `seed` are unused.  On n >= 3 each is sampled (kind
    "sampled"): all basepoints share one boundary cloud, each family is
    screened in one pass with the closed form for |phi_c|
    (`_screened_squares`), and each chain's value is its least closed-form
    norm over the cloud.  A sample's norm depends on that sample alone, and
    the cloud is prefix-stable with count-independent rescale radii, so a
    sampled value can only decrease when the sample count grows, bit for
    bit.  The sampling band reports the drop from the half-count estimate
    to the full-count estimate.
    """
    points = np.asarray(points, dtype=np.complex128).reshape(-1, D.n)
    if D.n == 2:
        families = [_checked_family(D, p) for p in points]
        radii = iter(np.sqrt(np.maximum(
            _exact_squares(D, [chain for family in families for chain in family]), 0.0)))
        minima = [[(float(r), float(r)) for _, r in zip(family, radii)] for family in families]
        samples, kind = 0, "exact"
    else:
        families, screen = _checked_families(D, points, count, seed)
        minima = [screen(family) for family in families]
        samples, kind = int(count), "sampled"
    estimates = []
    for p, family, pairs in zip(points, families, minima):
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
    """Squeezing floor over the subdomain D^{s,r}; `kind` says what it is.

    "exact" (n = 2): the slice floor (`gamma_floor`), the least over the
    slice set {b : b_2 = 0, P(b_1) < r}, onto which psi carries D^{s,r},
    of the larger of the normalizing and tangent radii at b; the trivial
    chain's radius lies below the normalizing one there, by Schwarz-Pick
    (module docstring).  Both radii come from the rows of the chains that
    `chain_family` builds at b, so `value` is min(1, the larger of those two
    exact radii at `argmin`), bit for bit.  It bounds the squeezing function
    on D^{s,r} from below up to its float minima, and is not certified.
    `argmin` is the minimizing slice point (t*, 0), which is not a point of
    D^{s,r}; `grid_count` and `samples` read 0, and neither s nor the seed
    moves the value.

    "sampled" (n >= 3): the least estimate over a subdomain grid.  The grid
    (`subdomain_grid`) is the image under w -> (delta_{rs}(w'), 1 - s + s w_n)
    of the estimation cloud's first `grid_count` sphere points, each
    dilated to a level t of D with P(t <= x) = x^Q, Q = 1 + sum_k 1/m_k.
    Each grid value is a sampled upper estimate of a chain's inscribed
    radius at its own point (see :class:`SqueezeEstimate`); the minimum is
    a heuristic stand-in for the uniform subdomain floor, not a certified
    constant.  `value` and `argmin` are the least `squeeze_estimates` value
    over the grid and its first point, found by bound (see
    :func:`gamma_floor`): grid points whose trivial-chain minimum already
    reaches the floor are never normalized.
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
    """Squeezing floor over D^{s,r} (:class:`FloorReport`).

    On n = 2 it is the slice floor: the least over t in
    [0, (r/a)^{1/(2m)}] of the larger of the normalizing and tangent radii
    at b = (t, 0) (`_slice_floor`); by Schwarz-Pick the trivial chain's
    radius stays below the normalizing chain's there (module docstring).
    s, `grid_count`, `count` and `seed` do not enter it.

    On n >= 3 it is the minimum squeezing estimate over a seeded grid of
    subdomain points (`subdomain_grid`); the first grid point with the
    least value is the argmin.  Value and argmin are those of the least
    `squeeze_estimates` value over the grid, bit for bit.

    The estimates use the cloud whose first sphere points the grid dilates.
    That reuse is deliberate: each value is still an upper estimate of its
    chain's inscribed radius, a lower bound for the squeezing function, and
    a grid drawn from other sphere points read higher floors.

    A grid value is the largest of its chains' minima, capped at 1, so the
    first chain's capped minimum, low_g, bounds it from below.  The trivial
    chain needs no domain automorphism, so low_g is cheap; every point gets
    it, and every chain of every point is checked for centering.  Points
    are then visited in ascending (low_g, g) order, their other chains
    screened, until a point's (low_g, g) exceeds the least (value, index)
    found: neither it nor any later point can hold the minimum.
    """
    if D.n == 2:
        return _slice_floor(D, s, r, seed)
    grid = subdomain_grid(D, SubdomainParams(s, r), grid_count, seed)
    families, screen = _checked_families(D, grid, count, seed)
    low = [min(screen(family[:1])[0][0], 1.0) for family in families]
    best = (np.inf, 0)
    for g in sorted(range(len(grid)), key=lambda g: (low[g], g)):
        if (low[g], g) > best:
            break
        rest = [full for full, _ in screen(families[g][1:])]
        best = min(best, (min(max([low[g]] + rest), 1.0), g))
    value, g = best
    return FloorReport(s=s, r=r, value=float(value), argmin=grid[g].copy(),
                       grid_count=grid_count, samples=count, seed=seed, kind="sampled")


def _slice_floor(D: GeneralEllipsoid, s: float, r: float, seed: int) -> FloorReport:
    """The n = 2 floor: the least over t in [0, (r/a)^{1/(2m)}] of the
    larger of the normalizing and tangent radii at b = (t, 0).

    In the coordinates L z, tau = a^{1/(2m)} t runs over [0, r^{1/(2m)}].
    psi is the identity on the slice, so the chains of `chain_family` at
    b = (tau / a^{1/(2m)}, 0) end in its two affine steps, Rescale(R_tight)
    and the tangent step at q = (1, 0), and phi_c with c = step(b), the
    arithmetic `chain_family` uses; `_chain_rows` turns them into the
    `_squares` rows `squeeze_estimates` evaluates at b.  The trivial chain,
    c = (t / R_pad, 0), is left out: it embeds D through the larger ball
    B(0, R_pad), and by Schwarz-Pick that inclusion only shrinks
    pseudo-hyperbolic distances, so its radius at b never exceeds the
    normalizing chain's and the maximum is the same.  `_least`
    minimizes the larger squared radius over the grid of [0, 1] cut at
    r^{1/(2m)}, which joins the grid: floors whose minimizer lies inside
    the cut take the same steps and agree bit for bit.  Both chains have
    c_2 = 0, so each tau is evaluated once, by the root solve of
    `_flat_squares` that `squeeze_estimates` takes at b too, and the floor
    is the least value the search met.  At r = 1 the cut is the boundary
    point, where the tangent chain's c reaches the sphere, so the grid
    stops short of it.  All three chains at the minimizer, the trivial one
    too, are checked for centering.
    """
    m, ell = _slice_scale(D)
    steps = (Rescale(D.bounding_radius(margin=0.0)), _tangent_step(m, ell, 1.0))
    top = r ** (1.0 / (2 * m))
    grid = np.linspace(0.0, 1.0, LEAST_GRID)
    grid = np.append(grid[grid < top], top)
    grid = grid[grid < 1.0]

    def largest(tau, rows):
        b = np.zeros((tau.size, 2), dtype=np.complex128)
        b[:, 0] = tau.ravel() / ell
        table = np.concatenate([_chain_rows(ell, step, step.apply(None, b)) for step in steps])
        return _squares(D, *table.T).reshape(2, -1).max(axis=0).reshape(tau.shape)

    square, tau = _least(largest, grid, 1)
    b = np.array([tau[0] / ell, 0.0], dtype=np.complex128)
    _checked_family(D, b)
    return FloorReport(s=s, r=r, value=min(float(np.sqrt(max(square[0], 0.0))), 1.0), argmin=b,
                       grid_count=0, samples=0, seed=seed, kind="exact")


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
    diam = 2.0 * D.bounding_radius(margin=0.0)  # upper bound keeps the quotient a floor
    return delta / diam
