"""Boundary scaling method for polynomial defining functions.

Given a real polynomial gauge rho (a Hermitian table in all n variables),
a base point eta and a level eps > 0, the distance

    tau(eta, v, eps) = sup { r : rho(eta + lambda v) - rho(eta) < eps
                             for all |lambda| < r }

is the reach along the complex line eta + C v before the gauge rises by
eps.  All reaches at one base point read the same translated table
q(w) = rho(eta + w) - rho(eta), built once by exact composition: along
the ray t e^{i phi} v it is a real polynomial in t, and the reach is the
smallest over phases of its first crossing of eps.  A frame is the
complex gradient direction and an orthonormal basis of its complement;
on the weighted model Re z_n + P(z') these are the coordinate axes, in
which Catlin's multitype is read.  Dilating by the reach along each
frame vector and dividing by eps turns rho into the scaled table

    rho~(w) = (1/eps) rho(eta + U diag(tau) w),

computed exactly by polynomial composition.  Along a sequence of base
points approaching a boundary point the scaled tables converge to a
limit normal form; `limit_diagnostics` tracks per-coefficient Cauchy
behaviour and checks plurisubharmonicity of the limit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

import numpy as np

from .errors import BoundedSearchError
from .hermpoly import RAY_CAP, HermitianPolynomial, first_crossing
from .util import philox, write_csv
from .wpoly import WeightedPolynomial

PHASE_GRID = 256          # phases per reach, then golden-section refined

# Limit diagnostics: Levi-form sample points (count, ball radius, seed) and
# the Cauchy step above which a still-growing coefficient counts as diverging.
LIMIT_GRID_COUNT = 128
LIMIT_GRID_RADIUS = 1.5
LIMIT_GRID_SEED = 5
CAUCHY_TOL = 1e-8


class DefiningFunctionPoly(HermitianPolynomial):
    """Hermitian table in all n variables used as a polynomial gauge."""

    @classmethod
    def graph_model(cls, P: WeightedPolynomial) -> "DefiningFunctionPoly":
        """Re(z_n) + P(z') on C^n: the weighted model hypersurface gauge."""
        n = P.weights.n
        zero = (0,) * n
        e_n = (0,) * (n - 1) + (1,)
        # Re(z_n) = (z_n + conj z_n)/2
        return cls(n, {(e_n, zero): 0.5, **P.lifted_terms()})


# -- tau: reach along a complex line -------------------------------------------------


def _translated(rho: HermitianPolynomial, eta: np.ndarray) -> HermitianPolynomial:
    """Table of w -> rho(eta + w) - rho(eta), with q(0) = 0 exactly."""
    shifted = rho.compose_affine(eta, np.eye(len(eta))).canonical
    zero = (0,) * len(eta)
    # the constant term of the shifted table is rho(eta); q(0) = 0 drops it
    shifted.pop((zero, zero), None)
    return HermitianPolynomial(len(eta), shifted)


def _tau_line(q: HermitianPolynomial, v: np.ndarray, eps: float, cap: float) -> float:
    """`tau` along direction v of a translated table q."""

    def reach(phases):
        return first_crossing(q, np.exp(1j * np.asarray(phases))[:, None] * v, eps, cap)

    phases = np.linspace(0.0, 2.0 * np.pi, PHASE_GRID, endpoint=False)
    radii = reach(phases)
    if not np.isfinite(radii).any():
        raise BoundedSearchError("gauge never rises by eps along this line", cap)
    k = int(np.argmin(radii))
    a = phases[(k - 1) % PHASE_GRID]
    b = phases[(k + 1) % PHASE_GRID]
    if b < a:
        b += 2.0 * np.pi
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    x1 = b - invphi * (b - a)
    x2 = a + invphi * (b - a)
    f1, f2 = reach([x1, x2])
    for _ in range(40):
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - invphi * (b - a)
            f1 = reach([x1])[0]
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + invphi * (b - a)
            f2 = reach([x2])[0]
        if b - a < 1e-10 or abs(f1 - f2) <= 1e-14 * max(f1, f2):
            break
    return float(min(radii[k], f1, f2))


def tau(rho: HermitianPolynomial, eta: np.ndarray, v: np.ndarray, eps: float,
        cap: float = RAY_CAP) -> float:
    """Reach along the complex line through eta in direction v at level eps.

    Computed on the translated table q(w) = rho(eta + w) - rho(eta) as the
    minimum over phases of the first radial crossing of the level eps: a
    grid of PHASE_GRID phases, then a golden-section refinement around the
    worst one.  Each crossing is the smallest positive root of the radial
    polynomial t -> q(t e^{i phase} v) - eps, found by
    :func:`~ellsqueeze.hermpoly.first_crossing`; a touching root counts.
    Raises :class:`BoundedSearchError` when no crossing exists below the cap.
    """
    if not eps > 0:
        raise ValueError("eps must be positive")
    v = np.asarray(v, dtype=np.complex128)
    if not abs(np.linalg.norm(v) - 1.0) <= 1e-8:
        raise ValueError("direction must be a unit vector")
    return _tau_line(_translated(rho, eta), v, eps, cap)


# -- scaling frames --------------------------------------------------------------------


@dataclass
class ScalingFrame:
    """Base point, level, orthonormal frame and the reach along each column."""

    eta: np.ndarray
    eps: float
    unitary: np.ndarray       # columns e_1, ..., e_n
    taus: np.ndarray          # tau_1, ..., tau_n matching the columns

    @property
    def n(self) -> int:
        return len(self.eta)


def _normal_direction(rho: HermitianPolynomial, eta: np.ndarray) -> np.ndarray:
    """Normalized complex gradient conj(d rho/dz_k) at eta."""
    g = np.conj(rho.gradient(eta))
    gn = np.linalg.norm(g)
    scale = max((abs(c) for c in rho.canonical.values()), default=1.0)
    if not gn >= 1e-12 * max(scale, 1.0):
        raise ValueError("gradient vanishes at the base point; no frame exists")
    return g / gn


def build_frame(rho: HermitianPolynomial, eta: np.ndarray, eps: float) -> ScalingFrame:
    """Orthonormal frame and reach radii at (eta, eps).

    The last column is the normalized complex gradient conj(d rho/dz_k),
    the others the SVD basis of its complement, not re-phased; tau_k is
    the reach along column k on one translated table.  At (0', -delta) on
    the graph model Re z_n + P(z') with eps = delta, the columns are the
    coordinate axes up to sign and order, tau_k = (delta/a_k)^(1/(2 m_k))
    for the |z_k|^(2 m_k) coefficient a_k, and every scaled table is
    -1 + Re w_n + P(c w') with one c for all delta.  Elsewhere the
    complement is a fixed orthonormal basis, not a maximizer of tau.
    """
    if not eps > 0:
        raise ValueError("eps must be positive")
    eta = np.asarray(eta, dtype=np.complex128)
    normal = _normal_direction(rho, eta)
    _, _, vh = np.linalg.svd(np.conj(normal)[None, :])
    unitary = np.column_stack([vh[1:].conj().T, normal])
    q = _translated(rho, eta)
    taus = np.array([_tau_line(q, column, eps, RAY_CAP) for column in unitary.T])
    return ScalingFrame(eta=eta, eps=float(eps), unitary=unitary, taus=taus)


# -- dilation and scaled tables -----------------------------------------------------------


@dataclass
class ScaledFunction:
    """(1/eps) rho composed with the inverse frame map and the dilation."""

    table: HermitianPolynomial
    frame: ScalingFrame

    @property
    def value_at_origin(self) -> float:
        return float(self.table.value(np.zeros(self.frame.n, dtype=np.complex128)))


def scaled_function(rho: HermitianPolynomial, frame: ScalingFrame) -> ScaledFunction:
    """Exact scaled table (1/eps) rho(eta + U diag(tau) w) at the frame's level.

    With eps = -rho(eta), as `scale_along_normal` chooses it, the table
    satisfies rho~(0) = -1 by construction.
    """
    M = frame.unitary * frame.taus[None, :]
    composed = rho.compose_affine(frame.eta, M)
    return ScaledFunction(table=composed * (1.0 / frame.eps), frame=frame)


def scale_along_normal(rho: HermitianPolynomial, etas: Sequence[np.ndarray],
                       starts: int = 32, seed: int = 0) -> List[ScaledFunction]:
    """Frames and scaled tables with the canonical level eps_j = -rho(eta_j).

    `starts` and `seed` are accepted and unused: `build_frame` chooses its
    frame without a search.
    """
    out = []
    for eta in etas:
        eta = np.asarray(eta, dtype=np.complex128)
        eps = -float(rho.value(eta))
        if not eps > 0:
            raise ValueError("base points must lie strictly inside {rho < 0}")
        out.append(scaled_function(rho, build_frame(rho, eta, eps)))
    return out


# -- tau_n/eps band and limit diagnostics ----------------------------------------------------


@dataclass
class TauNormalReport:
    """Observed band of tau_n / eps along a sequence of base points."""

    ratios: np.ndarray
    band: Tuple[float, float]
    stable_factor: float

    def passes(self, factor: float = 2.0) -> bool:
        lo, hi = self.band
        return lo > 0.0 and np.isfinite(hi) and hi / lo <= factor


def check_tau_normal(rho: HermitianPolynomial, etas: Sequence[np.ndarray],
                     epss: Sequence[float]) -> TauNormalReport:
    """Ratios tau_n(eta_j, eps_j)/eps_j for the normal frame direction."""
    ratios = []
    for eta, eps in zip(etas, epss):
        eta = np.asarray(eta, dtype=np.complex128)
        ratios.append(tau(rho, eta, _normal_direction(rho, eta), eps) / eps)
    ratios = np.array(ratios)
    band = (float(ratios.min()), float(ratios.max()))
    return TauNormalReport(ratios=ratios, band=band,
                           stable_factor=float(band[1] / band[0]))


@dataclass
class LimitReport:
    """Coefficientwise convergence diagnostics of a run of scaled tables."""

    keys: List[tuple]
    series: np.ndarray            # len(keys) x len(tables) complex
    cauchy_deltas: np.ndarray     # len(tables)-1 sup-norm steps
    limit_table: HermitianPolynomial
    psd_min_eig: float
    diverged: bool
    diverging_keys: List[tuple] = field(default_factory=list)


def limit_diagnostics(scaled: Sequence[ScaledFunction]) -> LimitReport:
    """Track per-coefficient Cauchy differences and test the limit's Levi form.

    Needs at least three tables.  Divergence (a coefficient whose
    successive differences grow and stay above tolerance) is reported,
    not raised.  The limit estimate is the last table, refined by a
    geometric extrapolation when the difference ratios are stable.
    """
    if len(scaled) < 3:
        raise ValueError("need at least three scaled tables along the sequence")
    n = scaled[0].frame.n
    tables = [sf.table.canonical for sf in scaled]
    keys = sorted({k for tab in tables for k in tab})
    series = np.array([[tab.get(k, 0.0) for tab in tables] for k in keys],
                      dtype=np.complex128)
    diffs = np.abs(np.diff(series, axis=1))
    cauchy = diffs.max(axis=0)
    diverging = [k for k, d in zip(keys, diffs)
                 if d[-1] > CAUCHY_TOL and d[-1] > d[-2] > CAUCHY_TOL]

    limit_coeffs = {}
    for i, k in enumerate(keys):
        c_last = series[i, -1]
        d_prev, d_last = series[i, -2] - series[i, -3], series[i, -1] - series[i, -2]
        if 0 < abs(d_last) < 0.95 * abs(d_prev):
            q = d_last / d_prev
            c_last = c_last + d_last * q / (1.0 - q)
        if k[0] == k[1]:
            c_last = complex(c_last.real, 0.0)
        if c_last != 0:
            limit_coeffs[k] = c_last
    limit = HermitianPolynomial(n, limit_coeffs)

    rng = philox(LIMIT_GRID_SEED)
    pts = rng.standard_normal((LIMIT_GRID_COUNT, 2 * n))
    pts = (pts[:, :n] + 1j * pts[:, n:])
    norms = np.linalg.norm(pts, axis=1)[:, None]
    radii = rng.uniform(0.0, LIMIT_GRID_RADIUS, size=(LIMIT_GRID_COUNT, 1))
    pts = pts / norms * radii
    min_eig = float(limit.min_levi_eigenvalue(pts).min())

    return LimitReport(
        keys=keys, series=series, cauchy_deltas=cauchy, limit_table=limit,
        psd_min_eig=min_eig,
        diverged=bool(diverging), diverging_keys=diverging,
    )


def diagnostics_to_csv(path, report: LimitReport) -> None:
    """CSV rows (coefficient key, value per step, final Cauchy delta)."""
    steps = report.series.shape[1]
    header = ["key"] + [f"re_j{j}" for j in range(steps)] \
        + [f"im_j{j}" for j in range(steps)] + ["cauchy_delta"]
    rows = []
    for i, k in enumerate(report.keys):
        key = ";".join(",".join(str(x) for x in part) for part in k)
        row = [key]
        row += [report.series[i, j].real for j in range(steps)]
        row += [report.series[i, j].imag for j in range(steps)]
        row.append(float(np.abs(np.diff(report.series[i])).max()) if steps > 1 else 0.0)
        rows.append(row)
    write_csv(path, header, rows)
