"""Squeezing-function lower bounds from explicit embedding chains.

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

  trivial    rescale by the padded bounding radius, then center the
             image of p (a guaranteed embedding);
  normalize  move p to the slice {z_n = 0} with the explicit
             automorphism, rescale by the sampled boundary sup norm
             (tight, exact up to boundary-sampling accuracy), then
             center the image.

Each chain's inscribed radius is a lower bound for the squeezing
function, but the reported values are sampled estimates of those radii
(upper estimates of them), exact only for the sampled clouds; the
supremum over all embeddings is not computable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from .automorphisms import EllipsoidAutomorphism, normalize_point
from .domain import GeneralEllipsoid, SubdomainParams, contains_sub
from .errors import BoundedSearchError
from .sequences import ApproachSequence
from .util import philox, write_csv

BASEPOINT_TOL = 1e-10
TIGHT_MARGIN = 1e-9
MAX_GRID_BLOCKS = 1000


@dataclass(frozen=True)
class Rescale:
    """Uniform contraction z -> z / R."""

    R: float

    def __post_init__(self):
        if self.R <= 0:
            raise ValueError("rescale radius must be positive")

    def apply(self, weights, z: np.ndarray) -> np.ndarray:
        return np.asarray(z, dtype=np.complex128) / self.R

    def describe(self) -> str:
        return f"rescale(1/{self.R:.6g})"


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
        ip = z @ np.conj(c)
        proj = (ip / c2)[..., None] * c
        return (c - proj - s * (z - proj)) / (1.0 - ip)[..., None]

    def describe(self) -> str:
        return f"ball_auto(|c|={np.linalg.norm(self.c):.6g})"


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
            raise ValueError(f"chain does not center its basepoint: |f(p)| = {err:g}")
        return err

    def describe(self) -> str:
        return self.label + "[" + " -> ".join(s.describe() for s in self.steps) + "]"


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

    def describe(self) -> str:
        return (f"sigma_hat={self.value:.6f} (+-{self.band:.2g} sampling band, "
                f"{self.samples} samples) via {self.chain.describe()}")


def chain_norms_at(chain: EmbeddingChain, points: np.ndarray) -> np.ndarray:
    """Norms of the chain images of an explicit boundary point set.

    Chains are pure compositions, so evaluating a family member g on a
    transported cloud psi(Xi) gives bit-identical values to evaluating the
    precomposed chain g o psi on Xi: the computable invariance of the
    estimate under domain automorphisms.
    """
    return np.linalg.norm(chain.apply(points), axis=-1)


def inscribed_radius(chain: EmbeddingChain, count: int = 1 << 14, seed: int = 0) -> float:
    """Min image norm over boundary samples: the chain's inscribed-ball estimate."""
    chain.check_basepoint()
    return float(chain_norms_at(chain, chain.domain.boundary_cloud(count, seed)).min())


def _tight_radius(D: GeneralEllipsoid) -> float:
    return D.bounding_radius(margin=0.0) * (1.0 + TIGHT_MARGIN)


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
    R_tight = _tight_radius(D)
    image = norm.b / R_tight
    chains.append(EmbeddingChain(
        D,
        (norm.automorphism, Rescale(R_tight), BallAutomorphism(image)),
        p,
        label="normalize"))
    return chains


def squeeze_lower_bound(D: GeneralEllipsoid, p: np.ndarray, count: int = 1 << 16,
                        seed: int = 0, boundary_filter=None) -> SqueezeEstimate:
    """Best inscribed-radius estimate over the strategy family at p.

    The returned value never exceeds one and can only decrease when the
    sample count grows (the cloud is prefix-stable and the rescale radii
    are count-independent).  The sampling band reports the drop from the
    half-count estimate to the full-count estimate.

    `boundary_filter(points) -> mask` restricts the sampled boundary, for
    subdomains that share only part of their boundary with the ellipsoid;
    the estimate is then local to the shared piece and labeled by the
    caller accordingly.
    """
    cloud = D.boundary_cloud(count, seed)
    if boundary_filter is not None:
        mask = np.asarray(boundary_filter(cloud), dtype=bool)
        if not mask.any():
            raise ValueError("boundary filter rejected every sample")
        cloud = cloud[mask]
    half = max(1, len(cloud) // 2)
    best_val = -np.inf
    best_chain = None
    best_half = None
    for chain in chain_family(D, p):
        chain.check_basepoint()
        norms = chain_norms_at(chain, cloud)
        val = float(norms.min())
        if val > best_val:
            best_val = val
            best_chain = chain
            best_half = float(norms[:half].min())
    value = min(best_val, 1.0)
    return SqueezeEstimate(
        point=np.asarray(p, dtype=np.complex128).reshape(D.n),
        value=value,
        chain=best_chain,
        samples=int(len(cloud)),
        band=max(best_half - best_val, 0.0),
    )


def squeeze_profile(D: GeneralEllipsoid, seq: ApproachSequence, count: int = 1 << 16,
                    seed: int = 0, boundary_filter=None) -> List[SqueezeEstimate]:
    """Per-term estimates along an approach sequence.

    For subdomain families that agree with the ellipsoid only inside a
    neighborhood of the target boundary point, pass a `boundary_filter`
    keeping the shared boundary piece.
    """
    return [squeeze_lower_bound(D, t.z, count, seed, boundary_filter)
            for t in seq.terms]


@dataclass(frozen=True)
class FloorReport:
    """Empirical squeezing floor over a subdomain grid.

    Each grid value is a lower-bound estimate at its own point; the
    minimum is a heuristic stand-in for the uniform subdomain floor, not
    a certified constant.
    """

    s: float
    r: float
    value: float
    argmin: np.ndarray
    grid_count: int
    samples: int
    seed: int
    analytic: Optional[float] = None


def subdomain_grid(D: GeneralEllipsoid, sp: SubdomainParams, grid_count: int,
                   seed: int = 0) -> np.ndarray:
    """Seeded rejection sample of interior points of D^{s,r}."""
    rng = philox(seed)
    R = D.bounding_radius()
    out = []
    attempts = 0
    while len(out) < grid_count:
        attempts += 1
        if attempts > MAX_GRID_BLOCKS:
            raise BoundedSearchError(
                "rejection sampling failed to fill the subdomain grid", MAX_GRID_BLOCKS)
        block = rng.uniform(-R, R, size=(max(512, 4 * grid_count), 2 * D.n))
        z = block[:, : D.n] + 1j * block[:, D.n:]
        keep = contains_sub(D, sp, z)
        out.extend(z[keep])
    return np.array(out[:grid_count])


def gamma_floor(D: GeneralEllipsoid, s: float, r: float, grid_count: int = 200,
                count: int = 1 << 14, seed: int = 0,
                with_analytic: bool = False) -> FloorReport:
    """Minimum squeezing estimate over a seeded grid of subdomain points."""
    sp = SubdomainParams(s, r)
    grid = subdomain_grid(D, sp, grid_count, seed)
    best = np.inf
    argmin = grid[0]
    for z in grid:
        est = squeeze_lower_bound(D, z, count, seed)
        if est.value < best:
            best = est.value
            argmin = est.point
    analytic = analytic_floor(D, r) if with_analytic else None
    return FloorReport(s=s, r=r, value=float(best), argmin=argmin,
                       grid_count=grid_count, samples=count, seed=seed,
                       analytic=analytic)


def analytic_floor(D: GeneralEllipsoid, r: float, samples: int = 2048,
                   seed: int = 11) -> float:
    """Distance between the slice level sets {P = r} and {P = 1} over twice
    the domain diameter.

    A closed-form-style floor candidate: slice images of subdomain points
    stay below the level r while the boundary sits at level 1, and the gap
    between the two level sets measures how far those images are from the
    boundary.  Its constants are a modeling choice (hence the separate
    "interpretation" reporting next to the empirical grid floor); the level
    sets are sampled by anisotropic dilation of sphere directions.
    """
    from .util import complex_sphere

    d = D.n - 1
    u = complex_sphere(samples, d, seed)
    pu = D.P.eval(u)
    inner = np.array([D.P.weights.dilate(r / pu[i], u[i]) for i in range(samples)])
    outer = np.array([D.P.weights.dilate(1.0 / pu[i], u[i]) for i in range(samples)])
    dists = np.linalg.norm(inner[:, None, :] - outer[None, :, :], axis=-1)
    delta = float(dists.min()) / 2.0
    diam = 2.0 * D.bounding_radius(margin=0.0)  # upper bound keeps the quotient a floor
    return delta / diam


def profile_to_csv(path, estimates: Sequence[SqueezeEstimate],
                   indices: Optional[Sequence[int]] = None,
                   floor: Optional[FloorReport] = None) -> None:
    n = len(estimates[0].point)
    header = ["j"]
    for k in range(n):
        header += [f"re_p{k + 1}", f"im_p{k + 1}"]
    header += ["sigma_hat", "chain_descriptor", "samples", "floor_r"]
    rows = []
    for i, est in enumerate(estimates):
        row = [indices[i] if indices is not None else i + 1]
        for k in range(n):
            row += [est.point[k].real, est.point[k].imag]
        row += [est.value, est.chain.describe(), est.samples,
                "" if floor is None else floor.value]
        rows.append(row)
    write_csv(path, header, rows)
