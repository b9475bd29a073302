"""Pullback exhaustion: the automorphism preimages of a subdomain swallow
the closed domain.

The check drives the package's main example: the preimages of an
internal subdomain under the +1-variant automorphisms swallow every
compact part of the closed domain away from the point (0', -1) once the
parameter is close enough to one.  The compact part is a finite point
cloud, so a verdict holds at the tested resolution only.

The check builds no image of the cloud.  For real a with |a| < 1 and
w = z_n, the +1-variant psi_a scales z_k by lam^{1/(2 m_k)} (1 + a w)^{-1/m_k},
lam = 1 - a^2, and sends w to M_a(w) = (w + a)/(1 + a w), where
M_a(w) - 1 = (w - 1)(1 - a)/(1 + a w).  Taking squared moduli, with
q = |1 + a w|^2 = 1 + 2a Re w + a^2 |w|^2,

    |psi_a(z) - (0', 1)|^2 = sum_k |z_k|^2 (lam/q)^{1/m_k}
                             + (1 - a)^2 (|w|^2 - 2 Re w + 1) / q,

so a point enters only through |z_k|^2, Re z_n and |z_n|^2, and the
inclusion test at each a is a few real array operations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from .automorphisms import pullback_coeffs
from .domain import GeneralEllipsoid
from .util import philox, write_csv


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


def exhaustion_check(D: GeneralEllipsoid, s: float, a_grid: Sequence[float],
                     eps: float = 0.4, u_radius: float = 0.5, count: int = 2000,
                     seed: int = 4) -> ExhaustionReport:
    """Sweep the +1-variant parameters and test the closed-domain inclusion.

    The cloud is `count` boundary samples and as many radially shrunk
    copies (z scaled by sqrt of a uniform draw), so it meets both the
    boundary and the interior; points within eps of (0', -1) leave it.  For
    each a the cloud is tested for membership in psi_a^{-1}(U), with U the
    ball of radius u_radius at (0', 1).  psi_a maps the closed domain onto
    itself (rho o psi_a is a positive factor times rho), so the images need
    no closure test, and none is built: with w = z_n, q = |1 + a w|^2 and
    lam = 1 - a^2, psi_a scales z_k by lam^{1/(2 m_k)} (1 + a w)^{-1/m_k}
    and M_a(w) - 1 = (w - 1)(1 - a)/(1 + a w), so

        |psi_a(z) - (0', 1)|^2 = sum_k |z_k|^2 (lam/q)^{1/m_k}
                                 + (1 - a)^2 |w - 1|^2 / q,

    which reads the cloud only through the sums of |z_k|^2 over each weight
    class, Re w and |w|^2.  The report records the first grid index from
    which the inclusion holds, together with the pullback coefficient
    triple (c1, c2, c3) drifting to (0, 1, 1).  A parameter with |a| >= 1
    raises ValueError, as it does in the automorphism family.
    """
    if not (0.0 < eps < 0.5):
        raise ValueError("eps must lie in (0, 1/2)")
    for a in a_grid:
        if abs(a) >= 1.0:
            raise ValueError(f"Moebius parameter must satisfy |a| < 1, got |a|={abs(a)}")
    z = D.boundary_cloud(count, seed)
    shrink = philox(seed + 1).uniform(0.0, 1.0, size=count) ** 0.5
    # |z_j|^2 and Re z_n of the boundary points, then of their shrunk copies
    sq = z.real * z.real + z.imag * z.imag
    sq = np.concatenate([sq, sq * (shrink * shrink)[:, None]])
    x = np.concatenate([z[:, -1].real, z[:, -1].real * shrink])
    r2 = sq[:, -1]
    keep = np.sqrt(sq[:, :-1].sum(axis=1) + (r2 + 2.0 * x + 1.0)) >= eps
    x, r2 = x[keep], r2[keep]
    classes = {}
    for k, mk in enumerate(D.P.weights.m):
        classes[mk] = classes.get(mk, 0.0) + sq[keep, k]
    off_north = r2 - 2.0 * x + 1.0  # |z_n - 1|^2
    fractions = []
    swallowed = []
    coeffs = []
    b = 1.0 - s
    for a in a_grid:
        a = float(a)
        q = 1.0 + 2.0 * a * x
        q += a * a * r2
        t = (1.0 - a * a) / q
        dist = (1.0 - a) ** 2 * off_north
        dist /= q
        for mk, sums in classes.items():
            dist += sums * (t if mk == 1 else np.sqrt(t) if mk == 2 else t ** (1.0 / mk))
        ok = dist <= u_radius * u_radius
        fractions.append(float(np.mean(ok)))
        swallowed.append(bool(ok.all()))
        coeffs.append(pullback_coeffs(b, a) if 0.0 < a < 1.0 else (np.nan,) * 3)
    return ExhaustionReport(
        a_grid=np.asarray(a_grid, dtype=float), fractions_inside=np.array(fractions),
        first_ok_index=_tail_start(swallowed), cloud_size=int(keep.sum()), coeffs=coeffs,
    )


def exhaustion_report_to_csv(path, report: ExhaustionReport) -> None:
    header = ["a", "fraction_inside", "c1", "c2", "c3"]
    rows = []
    for i, a in enumerate(report.a_grid):
        c1, c2, c3 = report.coeffs[i]
        rows.append([a, report.fractions_inside[i], c1, c2, c3])
    write_csv(path, header, rows)
