"""Boundary scaling method for polynomial defining functions.

Given a real polynomial gauge rho (a Hermitian table in all n variables),
a base point eta and a level eps > 0, the distance

    tau(eta, v, eps) = sup { r : rho(eta + lambda v) - rho(eta) < eps
                             for all |lambda| < r }

is the reach along the complex line eta + C v before the gauge rises by
eps.  A greedy orthonormal frame maximizes these distances: the last
vector is the complex gradient direction, the earlier ones maximize tau
inside successive orthogonal complements.  Dilating by the frame radii
and dividing by eps turns rho into the scaled table

    rho~(w) = (1/eps) rho(eta + U diag(tau) w),

computed exactly by polynomial composition.  Along a sequence of base
points approaching a boundary point the scaled tables converge to a
limit normal form; `limit_diagnostics` tracks per-coefficient Cauchy
behaviour and checks plurisubharmonicity of the limit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .errors import BoundedSearchError
from .hermpoly import HermitianPolynomial, first_crossing
from .util import philox, write_csv
from .wpoly import WeightedPolynomial

PHASE_GRID = 256


class DefiningFunctionPoly(HermitianPolynomial):
    """Hermitian table in all n variables used as a polynomial gauge."""

    @classmethod
    def graph_model(cls, P: WeightedPolynomial) -> "DefiningFunctionPoly":
        """Re(z_n) + P(z') on C^n: the weighted model hypersurface gauge."""
        n = P.weights.n
        terms = {}
        zero = (0,) * n
        e_n = tuple(1 if i == n - 1 else 0 for i in range(n))
        terms[(e_n, zero)] = 0.5  # Re(z_n) = (z_n + conj z_n)/2
        for (K, L), c in P.table.canonical.items():
            terms[(tuple(K) + (0,), tuple(L) + (0,))] = c
        return cls(n, terms)

    @classmethod
    def ball_gauge(cls, n: int) -> "DefiningFunctionPoly":
        """|z|^2 - 1 on C^n."""
        terms = {((0,) * n, (0,) * n): -1.0}
        for j in range(n):
            e = tuple(1 if i == j else 0 for i in range(n))
            terms[(e, e)] = 1.0
        return cls(n, terms)


# -- tau: reach along a complex line -------------------------------------------------


def _line_restriction(rho: HermitianPolynomial, eta: np.ndarray,
                      v: np.ndarray) -> HermitianPolynomial:
    """One-variable table of lambda -> rho(eta + lambda v) - rho(eta)."""
    restricted = rho.compose_affine(eta, np.asarray(v, complex).reshape(-1, 1))
    base = float(rho.value(np.asarray(eta, complex)))
    return restricted + (-base)


def _tau_line(q: HermitianPolynomial, eps: float, cap: float,
              phase_grid: int = PHASE_GRID, refine: bool = True) -> Tuple[float, float]:
    """(tau, worst phase) for a one-variable restriction table."""

    def reach(phases):
        return first_crossing(q, np.exp(1j * np.asarray(phases))[:, None], eps, cap)

    phases = np.linspace(0.0, 2.0 * np.pi, phase_grid, endpoint=False)
    radii = reach(phases)
    if not np.isfinite(radii).any():
        raise BoundedSearchError("gauge never rises by eps along this line", cap)
    k = int(np.argmin(radii))
    best_r, best_ph = radii[k], phases[k]
    if not refine:
        return float(best_r), float(best_ph)
    # local golden-section refinement of the worst phase
    a = phases[(k - 1) % phase_grid]
    b = phases[(k + 1) % phase_grid]
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
    for r, ph in ((f1, x1), (f2, x2)):
        if r < best_r:
            best_r, best_ph = r, ph
    return float(best_r), float(best_ph % (2.0 * np.pi))


def tau(rho: HermitianPolynomial, eta: np.ndarray, v: np.ndarray, eps: float,
        cap: float = 1e6) -> float:
    """Reach along the complex line through eta in direction v at level eps.

    Computed as the minimum over phases of the first radial crossing of
    the level eps: a grid of 256 phases, then a golden-section refinement
    around the worst one.  With q(lambda) = rho(eta + lambda v) - rho(eta),
    each crossing is the smallest positive root of the radial polynomial
    t -> q(t e^{i phase}) - eps, found by
    :func:`~ellsqueeze.hermpoly.first_crossing`; a touching root counts.
    Raises :class:`BoundedSearchError` when no crossing exists below the cap.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    v = np.asarray(v, dtype=np.complex128)
    nv = np.linalg.norm(v)
    if abs(nv - 1.0) > 1e-8:
        raise ValueError("direction must be a unit vector")
    q = _line_restriction(rho, eta, v)
    return _tau_line(q, eps, cap)[0]


# -- scaling frames --------------------------------------------------------------------


@dataclass
class ScalingFrame:
    """Base point, level, orthonormal frame and extremal reach radii."""

    eta: np.ndarray
    eps: float
    unitary: np.ndarray       # columns e_1, ..., e_n
    taus: np.ndarray          # tau_1, ..., tau_n matching the columns
    points: np.ndarray        # p_k = eta + tau_k e_k rows
    converged: bool = True
    start_spread: float = 0.0

    @property
    def n(self) -> int:
        return len(self.eta)


def _orthonormal_complement(vectors: List[np.ndarray], n: int) -> np.ndarray:
    """Columns spanning the Hermitian-orthogonal complement of `vectors`."""
    if not vectors:
        return np.eye(n, dtype=np.complex128)
    A = np.array(vectors)  # rows
    _, _, vh = np.linalg.svd(np.conj(A))
    return vh[len(vectors):].conj().T


def build_frame(rho: HermitianPolynomial, eta: np.ndarray, eps: float,
                starts: int = 32, seed: int = 0, cap: float = 1e6) -> ScalingFrame:
    """Greedy extremal frame at (eta, eps).

    The last frame vector is the normalized complex gradient
    (conj(d rho/dz_k)), the representative of the real gradient; the
    remaining vectors maximize tau over unit directions of successive
    orthogonal complements (multi-start projected ascent).  Each vector
    is re-phased so the touching point sits at positive real parameter.
    """
    eta = np.asarray(eta, dtype=np.complex128)
    n = len(eta)
    grad = rho.gradient(eta)
    g = np.conj(grad)
    gn = np.linalg.norm(g)
    scale = max((abs(c) for c in rho.canonical.values()), default=1.0)
    if gn < 1e-12 * max(scale, 1.0):
        raise ValueError("gradient vanishes at the base point; no frame exists")
    e_n = g / gn

    def line_tau(direction, coarse=False):
        q = _line_restriction(rho, eta, direction)
        if coarse:
            return _tau_line(q, eps, cap, phase_grid=32, refine=False)
        return _tau_line(q, eps, cap)

    tau_n, phase_n = line_tau(e_n)
    e_n = e_n * np.exp(1j * phase_n)

    frame_rev = [(e_n, tau_n)]
    fixed = [e_n]
    converged = True
    spread = 0.0
    rng = philox(seed)
    while len(fixed) < n:
        basis = _orthonormal_complement(fixed, n)
        k = basis.shape[1]
        if k == 1:
            direction = basis[:, 0]
            t_best, ph = line_tau(direction)
            e_best = direction * np.exp(1j * ph)
        else:
            t_best = -np.inf
            e_best = None
            results = []
            for _ in range(starts):
                x = rng.standard_normal(2 * k)
                u = x[:k] + 1j * x[k:]
                u /= np.linalg.norm(u)
                u, t_u = _sphere_ascent(lambda w: line_tau(basis @ w, coarse=True)[0], u)
                results.append(t_u)
                if t_u > t_best:
                    t_best = t_u
                    e_best = basis @ u
            spread = max(spread, float(np.max(results) - np.min(results)))
            converged = converged and (np.max(results) - np.median(results)
                                       <= 1e-6 * max(np.max(results), 1e-30))
            t_best, ph = line_tau(e_best)
            e_best = e_best * np.exp(1j * ph)
        frame_rev.append((e_best, t_best))
        fixed.append(e_best)

    # greedy construction already yields e_1 (largest tangential reach) first;
    # the normal direction goes last
    ordered = frame_rev[1:] + [frame_rev[0]]
    unitary = np.stack([e for e, _ in ordered], axis=1)
    taus = np.array([t for _, t in ordered])
    points = np.stack([eta + taus[k] * unitary[:, k] for k in range(n)], axis=0)
    return ScalingFrame(eta=eta, eps=float(eps), unitary=unitary, taus=taus,
                        points=points, converged=converged, start_spread=spread)


def _sphere_ascent(f, u0: np.ndarray, max_iter: int = 40,
                   tol: float = 1e-8) -> Tuple[np.ndarray, float]:
    """Projected finite-difference ascent of f on the complex unit sphere."""
    u = u0 / np.linalg.norm(u0)
    fu = f(u)
    k = len(u)
    h = 1e-4
    for _ in range(max_iter):
        grad = np.zeros(2 * k)
        x = np.concatenate([u.real, u.imag])
        for i in range(2 * k):
            xp = x.copy()
            xp[i] += h
            up = xp[:k] + 1j * xp[k:]
            grad[i] = (f(up / np.linalg.norm(up)) - fu) / h
        gnorm = np.linalg.norm(grad)
        if gnorm == 0.0:
            break
        improved = False
        step = 0.5
        while step > 1e-7:
            xn = x + step * grad / gnorm
            un = xn[:k] + 1j * xn[k:]
            un /= np.linalg.norm(un)
            fn = f(un)
            if fn > fu + 1e-14:
                gain = fn - fu
                u, fu = un, fn
                improved = True
                if gain < tol * max(abs(fu), 1e-30):
                    return u, fu
                break
            step *= 0.5
        if not improved:
            break
    return u, fu


def frame_grid_check(rho: HermitianPolynomial, frame: ScalingFrame,
                     grid: int = 2000, seed: int = 3) -> float:
    """Dense-sphere cross-check of the first tangential reach (n <= 3 sanity).

    Returns the best tau found on a random grid of tangential directions;
    the greedy frame should not be beaten by more than the optimizer tol.
    """
    n = frame.n
    basis = _orthonormal_complement([frame.unitary[:, -1]], n)
    rng = philox(seed)
    best = -np.inf
    for _ in range(grid):
        x = rng.standard_normal(2 * (n - 1))
        u = x[: n - 1] + 1j * x[n - 1:]
        u /= np.linalg.norm(u)
        q = _line_restriction(rho, frame.eta, basis @ u)
        t = _tau_line(q, frame.eps, 1e6, phase_grid=32)[0]
        best = max(best, t)
    return best


# -- dilation and scaled tables -----------------------------------------------------------


@dataclass
class ScaledFunction:
    """(1/eps) rho composed with the inverse frame map and the dilation."""

    table: HermitianPolynomial
    frame: ScalingFrame
    eps: float

    def gamma(self, z: np.ndarray) -> np.ndarray:
        """Forward normalized coordinates: diag(1/tau) U^H (z - eta)."""
        z = np.asarray(z, dtype=np.complex128)
        return (z - self.frame.eta) @ np.conj(self.frame.unitary) / self.frame.taus

    def gamma_inv(self, w: np.ndarray) -> np.ndarray:
        w = np.asarray(w, dtype=np.complex128)
        return self.frame.eta + (w * self.frame.taus) @ self.frame.unitary.T

    def value(self, w: np.ndarray) -> np.ndarray:
        return self.table.value(w)

    @property
    def value_at_origin(self) -> float:
        return float(self.table.value(np.zeros(self.frame.n, dtype=np.complex128)))


def scaled_function(rho: HermitianPolynomial, frame: ScalingFrame,
                    eps: Optional[float] = None) -> ScaledFunction:
    """Exact scaled table (1/eps) rho(eta + U diag(tau) w).

    With eps = -rho(eta) (the default) the table satisfies
    rho~(0) = -1 by construction.
    """
    if eps is None:
        eps = frame.eps
    M = frame.unitary * frame.taus[None, :]
    composed = rho.compose_affine(frame.eta, M)
    return ScaledFunction(table=composed * (1.0 / eps), frame=frame, eps=float(eps))


def scale_along_normal(rho: HermitianPolynomial, etas: Sequence[np.ndarray],
                       starts: int = 32, seed: int = 0) -> List[ScaledFunction]:
    """Frames and scaled tables with the canonical level eps_j = -rho(eta_j)."""
    out = []
    for eta in etas:
        eta = np.asarray(eta, dtype=np.complex128)
        eps = -float(rho.value(eta))
        if eps <= 0:
            raise ValueError("base points must lie strictly inside {rho < 0}")
        frame = build_frame(rho, eta, eps, starts=starts, seed=seed)
        out.append(scaled_function(rho, frame))
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
                     epss: Sequence[float], seed: int = 0) -> TauNormalReport:
    """Ratios tau_n(eta_j, eps_j)/eps_j for the normal frame direction."""
    ratios = []
    for eta, eps in zip(etas, epss):
        eta = np.asarray(eta, dtype=np.complex128)
        g = np.conj(rho.gradient(eta))
        e_n = g / np.linalg.norm(g)
        ratios.append(tau(rho, eta, e_n, eps) / eps)
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
    degree: int
    diverged: bool
    diverging_keys: List[tuple] = field(default_factory=list)


def limit_diagnostics(scaled: Sequence[ScaledFunction], grid_count: int = 128,
                      grid_radius: float = 1.5, seed: int = 5,
                      psd_tol: float = -1e-8,
                      cauchy_tol: float = 1e-8) -> LimitReport:
    """Track per-coefficient Cauchy differences and test the limit's Levi form.

    Needs at least three tables.  Divergence (a coefficient whose
    successive differences grow and stay above tolerance) is reported,
    not raised.  The limit estimate is the last table, refined by a
    geometric extrapolation when the difference ratios are stable.
    """
    if len(scaled) < 3:
        raise ValueError("need at least three scaled tables along the sequence")
    n = scaled[0].frame.n
    keys = sorted({k for sf in scaled for k in sf.table.canonical})
    series = np.zeros((len(keys), len(scaled)), dtype=np.complex128)
    for j, sf in enumerate(scaled):
        tab = sf.table.canonical
        for i, k in enumerate(keys):
            series[i, j] = tab.get(k, 0.0)
    diffs = np.abs(np.diff(series, axis=1))
    cauchy = diffs.max(axis=0)

    diverging = []
    for i, k in enumerate(keys):
        d = diffs[i]
        if len(d) >= 2 and d[-1] > cauchy_tol and d[-1] > d[-2] > cauchy_tol:
            diverging.append(k)

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

    rng = philox(seed)
    pts = rng.standard_normal((grid_count, 2 * n))
    pts = (pts[:, :n] + 1j * pts[:, n:])
    norms = np.linalg.norm(pts, axis=1)[:, None]
    radii = rng.uniform(0.0, grid_radius, size=(grid_count, 1))
    pts = pts / norms * radii
    min_eig = float(limit.min_levi_eigenvalue(pts).min())

    return LimitReport(
        keys=keys, series=series, cauchy_deltas=cauchy, limit_table=limit,
        psd_min_eig=min_eig, degree=limit.degree(),
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
