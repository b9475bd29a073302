"""Pullback exhaustion: the automorphism preimages of a subdomain swallow
the closed domain.

The check drives the package's main example: the preimages of an
internal subdomain under the +1-variant automorphisms swallow every
compact part of the closed domain away from the point (0', -1) once the
parameter is close enough to one.  The compact part is a finite point
cloud, so a verdict holds at the tested resolution only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from .automorphisms import EllipsoidAutomorphism, pullback_coeffs
from .domain import GeneralEllipsoid
from .util import blocks, philox, write_csv


def _tail_start(flags: Sequence[bool]) -> Optional[int]:
    """First 1-based index from which every later flag holds, else None."""
    start = None
    for i in range(len(flags), 0, -1):
        if not flags[i - 1]:
            break
        start = i
    return start


@dataclass
class ExhaustionReport:
    """First automorphism parameter whose pullback swallows the test cloud."""

    a_grid: np.ndarray
    fractions_inside: np.ndarray
    first_ok_index: Optional[int]
    cloud_size: int
    coeffs: List[tuple]

    @property
    def passed(self) -> bool:
        return self.first_ok_index is not None


def exhaustion_cloud(D: GeneralEllipsoid, eps: float, count: int = 2000,
                     seed: int = 4) -> np.ndarray:
    """Points of the closed domain away from the ball B((0', -1), eps).

    Mixes boundary samples with radially shrunk copies so the cloud meets
    both the boundary and the interior.
    """
    boundary = D.boundary_cloud(count, seed)
    rng = philox(seed + 1)
    shrink = rng.uniform(0.0, 1.0, size=count) ** 0.5
    interior = boundary * shrink[:, None]
    cloud = np.concatenate([boundary, interior], axis=0)
    south = np.zeros(D.n, dtype=np.complex128)
    south[-1] = -1.0
    keep = np.linalg.norm(cloud - south, axis=1) >= eps
    return cloud[keep]


def exhaustion_check(D: GeneralEllipsoid, s: float, a_grid: Sequence[float],
                     eps: float = 0.4, u_radius: float = 0.5, count: int = 2000,
                     seed: int = 4) -> ExhaustionReport:
    """Sweep the +1-variant parameters and test the closed-domain inclusion.

    For each a the cloud (closed domain minus an eps-ball at (0', -1)) is
    tested for membership in psi_a^{-1}(U) with U the ball of radius
    u_radius at (0', 1).  psi_a maps the closed domain onto itself (rho o
    psi_a is a positive factor times rho), so the images need no closure
    test; psi_a maps the cloud BLOCK points at a time.  The report records
    the first grid index where the inclusion holds, together with the
    pullback coefficient triple (c1, c2, c3) drifting to (0, 1, 1).
    """
    if not (0.0 < eps < 0.5):
        raise ValueError("eps must lie in (0, 1/2)")
    cloud = exhaustion_cloud(D, eps, count, seed)
    north = np.zeros(D.n, dtype=np.complex128)
    north[-1] = 1.0
    weights = D.P.weights
    fractions = []
    swallowed = []
    coeffs = []
    b = 1.0 - s
    for a in a_grid:
        psi = EllipsoidAutomorphism(a=float(a), theta=0.0, sign=+1)
        ok = np.empty(len(cloud), dtype=bool)
        for rows in blocks(len(cloud)):
            img = psi.apply(weights, cloud[rows])
            ok[rows] = np.linalg.norm(img - north, axis=1) <= u_radius
        fractions.append(float(np.mean(ok)))
        swallowed.append(bool(ok.all()))
        coeffs.append(pullback_coeffs(b, float(a)) if 0.0 < a < 1.0 else (np.nan,) * 3)
    return ExhaustionReport(
        a_grid=np.asarray(a_grid, dtype=float), fractions_inside=np.array(fractions),
        first_ok_index=_tail_start(swallowed), cloud_size=len(cloud), coeffs=coeffs,
    )


def exhaustion_report_to_csv(path, report: ExhaustionReport) -> None:
    header = ["a", "fraction_inside", "c1", "c2", "c3"]
    rows = []
    for i, a in enumerate(report.a_grid):
        c1, c2, c3 = report.coeffs[i]
        rows.append([a, report.fractions_inside[i], c1, c2, c3])
    write_csv(path, header, rows)
