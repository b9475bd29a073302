"""Sampled estimates of the inscribed radii of explicit embedding chains.

For an embedding f of the domain into the unit ball with f(p) = 0, the
largest ball around the origin inside f(D) is a lower bound for the
squeezing function at p.  Chains are built from three step types: a
domain automorphism, a uniform rescale z -> z/R, and the standard
involutive ball automorphism phi_c (phi_c(c) = 0).  The inscribed radius
of a chain is estimated by the minimum norm of the images of boundary
samples; all step maps extend continuously to the closed domain, so the
estimate converges to the true inscribed radius from above as the
sample count grows.

The default strategy family contains two chains:

  trivial    rescale by the bounding radius padded by 1%, then center
             the image of p;
  normalize  move p to the slice {z_n = 0} with the explicit
             automorphism, rescale by the proved bound for the sup norm
             of the domain (`GeneralEllipsoid.bounding_radius` with no
             margin), then center the image.

Both rescales are at least sup |z| over D, so each chain maps D into the
unit ball and its inscribed radius is a lower bound for the squeezing
function.  The reported values are sampled estimates of those radii
(upper estimates of them), exact only for the sampled clouds; the
supremum over all embeddings is not computable.

`squeeze_estimates` evaluates the family for many basepoints over one
shared cloud.  Every chain ends in phi_c, and

    |phi_c(w)|^2 = 1 - (1 - |c|^2)(1 - |w|^2) / |1 - <w, c>|^2

screens all samples for a basepoint's whole family at once, BLOCK
(`util.BLOCK`) samples at a time, so a chain's temporaries stay one block
long however large the cloud.  Only the samples near each screened minimum
go through the whole chain's explicit maps, and those explicit norms are
the reported values.

`gamma_floor` minimizes those estimates over a grid of D^{s,r} in closed
form (`subdomain_grid`): D^{s,r} is the image of D under
w -> (delta_{rs}(w'), 1 - s + s w_n), so the estimation cloud's first
sphere points, each moved to a level t of D with P(t <= x) = x^Q,
Q = 1 + sum_k 1/m_k, the level law of a uniform sample, land in D^{s,r}
for every admissible s and r.  It finds the minimum by bound: a grid value
is the largest of its chains' minima, so the trivial chain's minimum,
which needs no domain automorphism, bounds it from below, and the
normalizing chain is screened only at points whose bound lies below the
least value found so far.  Value and argmin equal the least of
`squeeze_estimates` over the grid, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Sequence, Tuple, Union

import numpy as np

from .automorphisms import EllipsoidAutomorphism, normalize_point
from .domain import GeneralEllipsoid, SubdomainParams
from .errors import ToleranceError
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
# squared norms within SCREEN_SLACK / (1 - |c|) of a chain's screened minimum
# are evaluated again through the explicit maps; the closed form and the
# explicit maps differ by about 1e-15 / (1 - |c|)
SCREEN_SLACK = 1e-12


@dataclass(frozen=True)
class Rescale:
    """Uniform contraction z -> z / R."""

    R: float

    def __post_init__(self):
        if self.R <= 0:
            raise ValueError("rescale radius must be positive")

    def apply(self, weights, z: np.ndarray) -> np.ndarray:
        return np.asarray(z, dtype=np.complex128) / self.R


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
    """A sampled squeezing estimate at one point.

    `value` is the minimum image norm of `chain` over a boundary cloud: an
    upper estimate of the chain's inscribed radius, which in turn is a lower
    bound for the squeezing function.  It is not certified.
    """

    point: np.ndarray
    value: float
    chain: EmbeddingChain
    samples: int
    band: float


def chain_norms_at(chain: EmbeddingChain, points: np.ndarray) -> np.ndarray:
    """Norms of the chain images of an explicit boundary point set.

    Chains are pure compositions, so evaluating a family member g on a
    transported cloud psi(Xi) gives bit-identical values to evaluating the
    precomposed chain g o psi on Xi: the computable invariance of the
    estimate under domain automorphisms.
    """
    return np.linalg.norm(chain.apply(points), axis=-1)


def chain_family(D: GeneralEllipsoid, p: np.ndarray) -> List[EmbeddingChain]:
    """The estimator's strategy family at an interior point."""
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
    return chains


def _squared_norms(w: np.ndarray) -> np.ndarray:
    """|w|^2 per point, summed over the n coordinates explicitly: a complex
    matrix product with an inner dimension of n is many times slower."""
    return sum(wk.real ** 2 + wk.imag ** 2 for wk in w.T)


def _screened_squares(D: GeneralEllipsoid, cloud: np.ndarray, cloud_w2: np.ndarray,
                      chains: Sequence[EmbeddingChain]) -> np.ndarray:
    """Closed-form squared image norms of a cloud under each chain.

    Every chain ends in Rescale(R) then phi_c; its steps before that pair
    run through their own maps, giving w, and

        |phi_c(w / R)|^2 = 1 - (1 - |c|^2)(1 - |w|^2 / R^2) / |1 - <w, c> / R|^2,

    one row per chain, so chains of different shapes share one call.  A
    chain with no steps before the pair has w = cloud, whose |w|^2 is
    `cloud_w2`, computed once for all basepoints.  Each row is filled BLOCK
    samples at a time, so the lead steps' temporaries stay one block long;
    every value is elementwise, so the blocks change no bit.
    """
    weights = D.P.weights
    out = np.empty((len(chains), len(cloud)))
    for row, chain in zip(out, chains):
        *lead, rescale, ball = chain.steps
        R, c = rescale.R, ball.c
        c2 = float((c * np.conj(c)).real.sum())
        for rows in blocks(len(cloud)):
            w, w2 = cloud[rows], cloud_w2[rows]
            if lead:
                for step in lead:
                    w = step.apply(weights, w)
                w2 = _squared_norms(w)
            gap = 1.0 - sum(wk * np.conj(ck / R) for wk, ck in zip(w.T, c))
            row[rows] = 1.0 - (1.0 - c2) / R ** 2 * (R ** 2 - w2) / (gap.real ** 2 + gap.imag ** 2)
    return out


def _screened_minima(D: GeneralEllipsoid, cloud: np.ndarray, cloud_w2: np.ndarray, half: int,
                     chains: Sequence[EmbeddingChain]) -> List[Tuple[float, float]]:
    """(full, half-prefix) minimum image norm of the cloud under each chain.

    The closed form screens every sample; the samples within the slack of
    a screened minimum, over the whole cloud or its half prefix, are
    evaluated again through the chain's explicit maps, and those explicit
    values are the ones returned.  The closed form loses accuracy like
    1 / (1 - |c|), so the slack grows by that factor and the explicit
    minimizers stay among the kept samples.  numpy may round the last bit
    of an explicit value differently in this short array than inside the
    whole cloud.
    """
    q = _screened_squares(D, cloud, cloud_w2, chains)
    c = np.array([np.linalg.norm(chain.steps[-1].c) for chain in chains])
    slack = (SCREEN_SLACK / (1.0 - c))[:, None]
    keep_full = q <= q.min(axis=1, keepdims=True) + slack
    keep_half = np.zeros_like(keep_full)
    keep_half[:, :half] = q[:, :half] <= q[:, :half].min(axis=1, keepdims=True) + slack
    out = []
    for chain, full, part in zip(chains, keep_full, keep_half):
        idx = np.flatnonzero(full | part)
        norms = chain_norms_at(chain, cloud[idx])
        out.append((float(norms[full[idx]].min()), float(norms[part[idx]].min())))
    return out


def _checked_families(D: GeneralEllipsoid, points: np.ndarray, count: int, seed: int):
    """Each basepoint's strategy family, every chain's centering checked,
    and the screen (`_screened_minima`) of chains over the shared cloud
    `D.boundary_cloud(count, seed)`."""
    cloud = D.boundary_cloud(count, seed)
    cloud_w2 = _squared_norms(cloud)
    half = max(1, len(cloud) // 2)
    families = []
    for p in points:
        family = chain_family(D, p)
        for chain in family:
            chain.check_basepoint()
        families.append(family)
    return families, lambda chains: _screened_minima(D, cloud, cloud_w2, half, chains)


def squeeze_estimates(D: GeneralEllipsoid, points: np.ndarray, count: int = 1 << 16,
                      seed: int = 0) -> List[SqueezeEstimate]:
    """Best inscribed-radius estimate over the strategy family at each point.

    Each value never exceeds one and, up to the rounding of the explicit
    chain maps, can only decrease when the sample count grows (the cloud
    is prefix-stable and the rescale radii are count-independent).  That
    rounding is a few ulps and grows like 1e-16 / (1 - |c|) next to the
    sphere: a sample's explicit value may differ by that much inside a
    larger cloud.  The sampling band reports the drop from the
    half-count estimate to the full-count estimate.

    `points` holds the basepoints, shape (G, n) or a sequence of n-vectors;
    all of them share one boundary cloud.  Each basepoint's family is
    screened in one pass with the closed form for |phi_c|, and every
    reported minimum is an explicit chain evaluation at the few samples the
    screen keeps (`_screened_minima`), which include the minimizer over the
    whole cloud.  The first chain of the family with the largest minimum
    wins.
    """
    points = np.asarray(points, dtype=np.complex128).reshape(-1, D.n)
    families, screen = _checked_families(D, points, count, seed)
    estimates = []
    for p, family in zip(points, families):
        pairs = screen(family)
        best = max(range(len(family)), key=lambda j: pairs[j][0])
        value, value_half = pairs[best]
        estimates.append(SqueezeEstimate(
            point=p.copy(),
            value=min(value, 1.0),
            chain=family[best],
            samples=int(count),
            band=max(value_half - value, 0.0),
        ))
    return estimates


def squeeze_lower_bound(D: GeneralEllipsoid, p: np.ndarray, count: int = 1 << 16,
                        seed: int = 0) -> SqueezeEstimate:
    """Best inscribed-radius estimate over the strategy family at one point;
    see :func:`squeeze_estimates`."""
    return squeeze_estimates(D, [p], count, seed)[0]


@dataclass(frozen=True)
class FloorReport:
    """Empirical squeezing floor over a subdomain grid.

    The grid (`subdomain_grid`) is the image under
    w -> (delta_{rs}(w'), 1 - s + s w_n) of the estimation cloud's first
    `grid_count` sphere points, each dilated to a level t of D with
    P(t <= x) = x^Q, Q = 1 + sum_k 1/m_k.  Each grid value is a sampled
    upper estimate of a chain's inscribed radius at its own point (see
    :class:`SqueezeEstimate`); the minimum is a heuristic stand-in for the
    uniform subdomain floor, not a certified constant.  `value` and
    `argmin` are the least `squeeze_estimates` value over the grid and its
    first point, found by bound (see :func:`gamma_floor`): grid points whose
    trivial-chain minimum already reaches the floor are never normalized.
    """

    s: float
    r: float
    value: float
    argmin: np.ndarray
    grid_count: int
    samples: int
    seed: int


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
    """Minimum squeezing estimate over a seeded grid of subdomain points
    (`subdomain_grid`); the first grid point with the least value is the
    argmin.  Value and argmin are those of the least `squeeze_estimates`
    value over the grid, bit for bit.

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
                       grid_count=grid_count, samples=count, seed=seed)


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
    boundary.  Its constants are a modeling choice (hence the separate
    "interpretation" reporting next to the empirical grid floor).  The level
    sets are sampled, by anisotropic dilation of ANALYTIC_FLOOR_SAMPLES
    sphere directions; the gap between the two samples is exact, the
    smallest of all their pair distances (`_closest_pair_squared`).
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
