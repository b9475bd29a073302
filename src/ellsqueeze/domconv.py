"""Set-convergence checks for sequences of domains via membership oracles.

Convergence of open sets Omega_i -> Omega_0 is tested in the two-clause
sense: (i) every compact subset of the limit eventually lies in the
sequence, and (ii) any compact set eventually contained in the sequence
lies in the limit.  Compact sets are represented by finite point clouds
carrying an interior margin; all verdicts are therefore qualified by the
tested resolution and failures carry concrete witness points.

The pullback exhaustion check drives the package's main example: the
preimages of an internal subdomain under the +1-variant automorphisms
swallow every compact part of the closed domain away from the point
(0', -1) once the parameter is close enough to one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

import numpy as np

from .automorphisms import EllipsoidAutomorphism, pullback_coeffs
from .domain import GeneralEllipsoid, SubdomainParams, contains_sub
from .util import philox, write_csv


# closed-domain membership rho < CLOSURE_TOL of the exhaustion check's images
CLOSURE_TOL = 1e-9
# margin-length probe directions per margin certificate, and their seed
MARGIN_PROBES = 8
MARGIN_PROBE_SEED = 2


@dataclass
class DomainOracle:
    """Deterministic membership predicate."""

    contains: Callable[[np.ndarray], np.ndarray]

    @classmethod
    def from_ellipsoid(cls, D: GeneralEllipsoid) -> "DomainOracle":
        return cls(D.contains)

    @classmethod
    def from_subdomain(cls, D: GeneralEllipsoid, sp: SubdomainParams) -> "DomainOracle":
        return cls(lambda z: contains_sub(D, sp, z))

    def pullback(self, psi: EllipsoidAutomorphism, D: GeneralEllipsoid) -> "DomainOracle":
        """Oracle of psi^{-1}(this set): composes the forward map."""
        weights = D.P.weights
        return DomainOracle(lambda z: self.contains(psi.apply(weights, z)))

    def scaled(self, factor: float) -> "DomainOracle":
        return DomainOracle(lambda z: self.contains(np.asarray(z, complex) / factor))


@dataclass
class CompactCloud:
    """Finite stand-in for a compact subset, with a declared interior margin."""

    points: np.ndarray
    margin: float

    def __post_init__(self):
        self.points = np.atleast_2d(np.asarray(self.points, dtype=np.complex128))
        if self.margin < 0:
            raise ValueError("margin must be nonnegative")


def margin_certificate(oracle: DomainOracle, cloud: CompactCloud) -> bool:
    """Check the cloud plus margin-length probes all sit inside the oracle."""
    inside = oracle.contains(cloud.points)
    if not np.asarray(inside).all():
        return False
    if cloud.margin == 0.0:
        return True
    rng = philox(MARGIN_PROBE_SEED)
    npts, n = cloud.points.shape
    dirs = rng.standard_normal((MARGIN_PROBES, 2 * n))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    cdirs = dirs[:, :n] + 1j * dirs[:, n:]
    for u in cdirs:
        if not np.asarray(oracle.contains(cloud.points + cloud.margin * u)).all():
            return False
    return True


@dataclass
class ConditionIReport:
    """Smallest tested index from which the cloud stays inside the sequence."""

    i0: Optional[int]
    witnesses: dict = field(default_factory=dict)  # 1-based index -> points

    @property
    def passed(self) -> bool:
        return self.i0 is not None


def _tail_start(flags: Sequence[bool]) -> Optional[int]:
    """First 1-based index from which every later flag holds, else None."""
    start = None
    for i in range(len(flags), 0, -1):
        if not flags[i - 1]:
            break
        start = i
    return start


def check_condition_i(omegas: Sequence[DomainOracle], omega0: DomainOracle,
                      cloud: CompactCloud) -> ConditionIReport:
    """Clause (i): the cloud must eventually be contained in the sequence.

    Precondition: the cloud sits inside the limit with its declared margin.
    """
    if not margin_certificate(omega0, cloud):
        raise ValueError("cloud is not inside the limit domain at its declared margin")
    contained = []
    witnesses = {}
    for i, om in enumerate(omegas, start=1):
        inside = np.asarray(om.contains(cloud.points))
        contained.append(bool(inside.all()))
        if not contained[-1]:
            witnesses[i] = cloud.points[~inside]
    return ConditionIReport(i0=_tail_start(contained), witnesses=witnesses)


@dataclass
class ConditionIIReport:
    """Clause (ii): persistent containment forces membership in the limit."""

    eventually_contained: bool
    since_index: Optional[int]
    inside_limit: Optional[bool]
    counterexamples: np.ndarray
    vacuous: bool

    @property
    def passed(self) -> bool:
        return self.vacuous or bool(self.inside_limit)


def check_condition_ii(omegas: Sequence[DomainOracle], omega0: DomainOracle,
                       cloud: CompactCloud) -> ConditionIIReport:
    since = _tail_start([bool(np.asarray(om.contains(cloud.points)).all()) for om in omegas])
    if since is None:
        return ConditionIIReport(False, None, None,
                                 np.empty((0, cloud.points.shape[1])), vacuous=True)
    inside = np.asarray(omega0.contains(cloud.points))
    return ConditionIIReport(True, since, bool(inside.all()),
                             cloud.points[~inside], vacuous=False)


# -- pullback exhaustion ---------------------------------------------------------------


@dataclass
class ExhaustionReport:
    """First automorphism parameter whose pullback swallows the test cloud."""

    a_grid: np.ndarray
    fractions_inside: np.ndarray
    first_ok_index: Optional[int]
    cloud_size: int
    eps: float
    u_radius: float
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
    tested for membership in psi_a^{-1}(closure cap U) with U the ball of
    radius u_radius at (0', 1); the report records the first grid index
    where the inclusion holds, together with the pullback coefficient
    triple (c1, c2, c3) drifting to (0, 1, 1).
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
        img = psi.apply(weights, cloud)
        ok = (D.rho(img) < CLOSURE_TOL) & (np.linalg.norm(img - north, axis=1) <= u_radius)
        fractions.append(float(np.mean(ok)))
        swallowed.append(bool(ok.all()))
        coeffs.append(pullback_coeffs(b, float(a)) if 0.0 < a < 1.0 else (np.nan,) * 3)
    return ExhaustionReport(
        a_grid=np.asarray(a_grid, dtype=float), fractions_inside=np.array(fractions),
        first_ok_index=_tail_start(swallowed), cloud_size=len(cloud), eps=eps,
        u_radius=u_radius, coeffs=coeffs,
    )


def condition_report_to_csv(path, report_i: ConditionIReport,
                            report_ii: ConditionIIReport) -> None:
    header = ["index_or_a", "condition", "pass", "witnesses"]
    rows = []
    rows.append([report_i.i0 if report_i.i0 is not None else -1, "i",
                 report_i.passed,
                 ";".join(str(i) for i in sorted(report_i.witnesses))])
    rows.append([report_ii.since_index if report_ii.since_index is not None else -1,
                 "ii", report_ii.passed,
                 str(len(report_ii.counterexamples))])
    write_csv(path, header, rows)


def exhaustion_report_to_csv(path, report: ExhaustionReport) -> None:
    header = ["a", "fraction_inside", "c1", "c2", "c3"]
    rows = []
    for i, a in enumerate(report.a_grid):
        c1, c2, c3 = report.coeffs[i]
        rows.append([a, report.fractions_inside[i], c1, c2, c3])
    write_csv(path, header, rows)
