"""Approach sequences to the distinguished boundary point (0', 1) and their
tangential / nontangential classification.

The classifier rests on the tangency ratio of a point q relative to the
subdomain scale s: the smallest r for which q enters D^{s,r},

    r*(q) = s P(q') / (s^2 - |q_n - (1-s)|^2)    (+inf if the denominator is <= 0),

so q lies in D^{s,r} exactly when r > r*(q).  A sequence escaping every
D^{s,r} with r < 1 has tail ratios accumulating at or above 1
(tangential); a sequence trapped in some D^{s,r0} with r0 < 1 has tail
ratios bounded by r0 (nontangential).

Every term carries exact rational shadows of its real z_n >= 0 and of
P(z'): the textbook identities (rho = -1/j^2, gap = 1/j, ratio = 1) and
the classifier's memberships in D^{s,r} are then decided in exact
arithmetic, so no rounding of the floating points can contradict them.
`generate` refuses a term whose floating point misses its exact rho by more
than half: the measurements made at that point would belong to another
level.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence

import numpy as np

from .domain import GeneralEllipsoid
from .errors import ConfigError
from .util import write_csv

MEMBERSHIP_R_GRID = (0.25, 0.5, 0.75, 0.9, 0.99)
# classifier verdict: the tail is the last TAIL_FRACTION of the terms; it is
# tangential when its ratios stay >= 1 - TANGENTIAL_TOL and nontangential
# when they stay <= 1 - MARGIN_TOL
TAIL_FRACTION = 0.5
TANGENTIAL_TOL = 1e-6
MARGIN_TOL = 1e-3


@dataclass(frozen=True)
class SequenceTerm:
    """One sequence element with the exact shadows of its real z_n and P(z')."""

    index: int
    z: np.ndarray
    zn_exact: Fraction
    p_exact: Fraction

    def rho_exact(self) -> Fraction:
        """Exact rho = z_n^2 - 1 + P(z')."""
        return self.zn_exact * self.zn_exact - 1 + self.p_exact


@dataclass
class ApproachSequence:
    """A materialized sequence of interior points converging to (0', 1)."""

    domain: GeneralEllipsoid
    terms: List[SequenceTerm]

    def points(self) -> np.ndarray:
        return np.array([t.z for t in self.terms])

    def indices(self) -> np.ndarray:
        return np.array([t.index for t in self.terms])


def _place_on_level(D: GeneralEllipsoid, u: np.ndarray, p_u: float, target: float) -> np.ndarray:
    """delta_t(u) with P(delta_t u) = target, using P(delta_t u) = t P(u), p_u = P(u)."""
    if target == 0.0:
        return np.zeros_like(u)
    return D.P.weights.dilate(target / p_u, u)


def generate(D: GeneralEllipsoid, kind: str, count: int = 50,
             indices: Optional[Sequence[int]] = None, s: float = 0.5,
             ratio: float = 0.5) -> ApproachSequence:
    """Materialize an approach sequence to (0', 1).

    Kinds:
      normal      -- inner-normal points (0', 1 - 1/j).
      tangential  -- z_n = 1 - 1/j with P(z') = 2/j - 2/j^2, placed along a
                     fixed slice direction on the weighted level set; the
                     escape-every-subdomain showcase (exact ratio 1 at s=1/2).
      cone        -- z_n = 1 - 1/j with P(z') chosen so the tangency ratio
                     at scale s is identically `ratio` (stays in D^{s,r} for
                     every r > ratio).
    Indices default to 2, 3, ..., count+1.
    """
    if indices is None:
        indices = range(2, count + 2)
    indices = [int(j) for j in indices]
    if any(j < 1 for j in indices):
        raise ConfigError("sequence indices must be >= 1")
    if kind not in ("normal", "tangential", "cone"):
        raise ConfigError(f"unknown sequence kind {kind!r}")
    if kind == "cone" and not (0.0 < ratio < 1.0):
        raise ConfigError("cone ratio must lie in (0, 1)")
    u = np.zeros(D.n - 1, dtype=np.complex128)
    u[0] = 1.0  # the fixed slice direction e_1
    p_u = float(D.P.eval(u))
    terms: List[SequenceTerm] = []
    for j in indices:
        zn = Fraction(j - 1, j)
        if kind == "normal":
            p_target = Fraction(0)
        elif kind == "tangential":
            p_target = Fraction(2, j) - Fraction(2, j * j)
        else:
            s_f = Fraction(s)
            gap = s_f * s_f - (zn - (1 - s_f)) ** 2
            if gap <= 0:
                raise ConfigError(f"index {j} leaves the subdomain scale s={s}")
            p_target = Fraction(ratio) * gap / s_f
        z = np.concatenate([_place_on_level(D, u, p_u, float(p_target)), [float(zn)]])
        terms.append(SequenceTerm(j, z, zn_exact=zn, p_exact=p_target))

    seq = ApproachSequence(domain=D, terms=terms)
    _validate(seq)
    return seq


def _validate(seq: ApproachSequence) -> None:
    """Refuse terms that double precision cannot place, and sequences that
    do not approach (0', 1).

    A term's float point is usable when its rho differs from the term's
    exact rho, which is negative, by at most half of |exact rho|.  A point
    that rounds onto or outside the boundary differs by more, so every
    usable term lies inside D.
    """
    pts = seq.points()
    exact = np.array([float(t.rho_exact()) for t in seq.terms])
    placed = np.abs(seq.domain.rho(pts) - exact) <= np.abs(exact) / 2
    if not placed.all():
        bad = seq.indices()[~placed]
        raise ConfigError(f"sequence terms {bad.tolist()} lie too close to the boundary for "
                          "double precision: their float rho is off the exact rho by over half")
    target = np.zeros(seq.domain.n)
    target[-1] = 1.0
    gaps = np.linalg.norm(pts - target, axis=1)
    if len(gaps) >= 4:
        tail = gaps[len(gaps) // 2:]
        if not np.all(np.diff(tail) <= 1e-12):
            raise ConfigError("sequence does not approach (0', 1): tail gaps not decreasing")


# -- tangency ratio ----------------------------------------------------------------


def _exact_ratio(s: float, term: SequenceTerm) -> Optional[Fraction]:
    """r*(term) from its exact shadows; None when the term misses D^s."""
    s_f = Fraction(s)
    denom = s_f * s_f - (term.zn_exact - (1 - s_f)) ** 2
    if denom <= 0:
        return None
    return s_f * term.p_exact / denom


def _check_scale(s: float) -> None:
    if not (0.0 < s <= 1.0):
        raise ValueError(f"s must lie in (0, 1], got {s}")


def tangency_ratio(D: GeneralEllipsoid, s: float, term) -> float:
    """Smallest r with term in D^{s,r}; +inf when the term misses D^s entirely.

    A :class:`SequenceTerm` is evaluated from its exact shadows in rational
    arithmetic; a raw point uses floating arithmetic.
    """
    _check_scale(s)
    if isinstance(term, SequenceTerm):
        exact = _exact_ratio(s, term)
        return float("inf") if exact is None else float(exact)
    z = np.asarray(term, dtype=np.complex128)
    zn = complex(z[-1])
    denom = s * s - abs(zn - (1.0 - s)) ** 2
    if denom <= 0.0:
        return float("inf")
    return float(s) * float(D.P.eval(z[:-1])) / denom


# -- classification -----------------------------------------------------------------


@dataclass
class ClassificationRecord:
    """Per-term diagnostics plus the tail verdict at one subdomain scale s."""

    s: float
    indices: np.ndarray
    abs_rho: np.ndarray
    normal_gap: np.ndarray
    p_prime: np.ndarray
    r_star: np.ndarray
    membership: np.ndarray  # terms x MEMBERSHIP_R_GRID booleans
    verdict: str


def classify(D: GeneralEllipsoid, s: float, seq: ApproachSequence) -> ClassificationRecord:
    """Tail-based verdict: tangential, nontangential, or inconclusive.

    The per-term diagnostics come from the exact shadows; a term lies in
    D^{s,r} of the membership grid exactly when r > r*, decided in rational
    arithmetic, so a term whose r* equals a grid value r is not in D^{s,r}.
    The verdict inspects the tail (the last TAIL_FRACTION of the terms) of
    the ratio sequence: a tail minimum >= 1 - TANGENTIAL_TOL is tangential,
    a finite tail maximum <= 1 - MARGIN_TOL is nontangential, anything else
    inconclusive.
    """
    terms = seq.terms
    abs_rho = np.array([abs(float(t.rho_exact())) for t in terms])
    gap = np.array([abs(float(t.zn_exact - 1)) for t in terms])
    p_prime = np.array([float(t.p_exact) for t in terms])
    _check_scale(s)
    exact = [_exact_ratio(s, t) for t in terms]
    r_star = np.array([float("inf") if x is None else float(x) for x in exact])
    grid = [Fraction(r) for r in MEMBERSHIP_R_GRID]
    membership = np.array([[x is not None and r > x for r in grid] for x in exact], dtype=bool)

    tail_start = int(len(terms) * (1.0 - TAIL_FRACTION))
    tail = r_star[tail_start:]
    tail_min = float(np.min(tail))
    tail_max = float(np.max(tail))
    if tail_min >= 1.0 - TANGENTIAL_TOL:
        verdict = "tangential"
    elif tail_max <= 1.0 - MARGIN_TOL and np.isfinite(tail_max):
        verdict = "nontangential"
    else:
        verdict = "inconclusive"

    return ClassificationRecord(
        s=s, indices=seq.indices(), abs_rho=abs_rho, normal_gap=gap,
        p_prime=p_prime, r_star=r_star, membership=membership,
        verdict=verdict,
    )


def record_to_csv(path, record: ClassificationRecord) -> None:
    header = ["j", "abs_rho", "normal_gap", "P_prime", "r_star"]
    header += [f"in_dsr_{r:g}" for r in MEMBERSHIP_R_GRID]
    rows = []
    for i in range(len(record.indices)):
        row = [record.indices[i], record.abs_rho[i], record.normal_gap[i],
               record.p_prime[i], record.r_star[i]]
        row += [bool(v) for v in record.membership[i]]
        rows.append(row)
    write_csv(path, header, rows)
