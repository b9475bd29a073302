"""The explicit automorphism family of a generalized ellipsoid.

Every map in the family is a disk automorphism in the last coordinate
together with compensating fractional-power factors on the slice
variables:

    z_k  ->  (1-|a|^2)^{1/(2 m_k)} / (1 + sign * conj(a) w)^{1/m_k} * z_k
    z_n  ->  (w + sign * a) / (1 + sign * conj(a) w),      w = e^{i theta} z_n.

The admissibility rule wt(K) = wt(L) = 1/2 makes every monomial of P pick
up the same conformal factor, so rho transforms by a positive multiplier
and the domain is preserved exactly.  Re(1 + sign*conj(a) w) >= 1 - |a| > 0
whenever |z_n| <= 1, in particular on the closed domain, so principal
fractional powers are single-valued; this is the one branch choice in the
construction and it is used everywhere.  A weight m_k = 2 takes numpy's
complex square root, m_k >= 3 complex powers.

`sign=-1` (default) is the variant that sends a chosen interior point onto
the slice {z_n = 0}; `sign=+1` is its inverse inside the family
(`inverse`), and the map whose pullbacks `pullback_coeffs` states in
closed form.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .domain import GeneralEllipsoid
from .wpoly import MultiWeight


@dataclass(frozen=True)
class EllipsoidAutomorphism:
    """Composition (Moebius in z_n with parameter a) after (z_n -> e^{i theta} z_n)."""

    a: complex
    theta: float = 0.0
    sign: int = -1

    def __post_init__(self):
        if abs(self.a) >= 1.0:
            raise ValueError(f"Moebius parameter must satisfy |a| < 1, got |a|={abs(self.a)}")
        if self.sign not in (-1, 1):
            raise ValueError("sign must be +1 or -1")

    @property
    def lam(self) -> float:
        return 1.0 - abs(self.a) ** 2

    def apply(self, weights: MultiWeight, z: np.ndarray) -> np.ndarray:
        """Image of points of shape (..., n)."""
        z = np.asarray(z, dtype=np.complex128)
        w = z[..., -1] * np.exp(1j * self.theta)
        den = 1.0 + self.sign * np.conj(self.a) * w
        out = np.empty_like(z)
        lam = self.lam
        for k, mk in enumerate(weights.m):
            if mk == 1:
                out[..., k] = z[..., k] * (np.sqrt(lam) / den)
            elif mk == 2:
                out[..., k] = z[..., k] * (lam ** 0.25 / np.sqrt(den))
            else:
                out[..., k] = z[..., k] * (lam ** (1.0 / (2 * mk)) / den ** (1.0 / mk))
        out[..., -1] = (w + self.sign * self.a) / den
        return out

    def inverse(self) -> "EllipsoidAutomorphism":
        """The inverse map, expressed inside the same family."""
        return EllipsoidAutomorphism(
            a=self.a * np.exp(-1j * self.theta),
            theta=-self.theta,
            sign=-self.sign,
        )

    def conformal_factor(self, z: np.ndarray) -> np.ndarray:
        """Positive multiplier with rho(psi(z)) = factor * rho(z) exactly."""
        z = np.asarray(z, dtype=np.complex128)
        w = z[..., -1] * np.exp(1j * self.theta)
        den = 1.0 + self.sign * np.conj(self.a) * w
        return self.lam / (den * np.conj(den)).real


@dataclass(frozen=True)
class NormalizationResult:
    """The automorphism sending an interior point onto {z_n = 0}, and its image b."""

    b: np.ndarray
    automorphism: EllipsoidAutomorphism


def normalize_point(D: GeneralEllipsoid, q: np.ndarray) -> NormalizationResult:
    """Factor q through a rotation to real Moebius parameter and map it to the slice.

    The rotation angle satisfies Im(e^{i theta} q_n) = 0 with nonnegative
    real part, a is that real part, and the slice image is

        b = (q_1 / lam^{1/(2 m_1)}, ..., q_{n-1} / lam^{1/(2 m_{n-1})}, 0),

    lam = 1 - a^2.  The constructed automorphism maps q to b, and b stays
    inside the domain because rho only changes by a positive factor.
    """
    q = np.asarray(q, dtype=np.complex128).reshape(D.n)
    if not bool(D.contains(q)):
        raise ValueError("point is not inside the domain")
    qn = q[-1]
    if qn == 0:
        theta = 0.0
        a = 0.0
    else:
        theta = float(-np.angle(qn))
        a = float(abs(qn))
    psi = EllipsoidAutomorphism(a=a, theta=theta, sign=-1)
    lam = 1.0 - a * a
    b = np.zeros(D.n, dtype=np.complex128)
    for k, mk in enumerate(D.P.weights.m):
        b[k] = q[k] / lam ** (1.0 / (2 * mk))
    return NormalizationResult(b=b, automorphism=psi)


def pullback_coeffs(b: float, a: float) -> Tuple[float, float, float]:
    """Coefficients of the pulled-back subdomain inequality.

    For the +1-variant automorphism with real parameter a, membership of
    the image in D^s (s = 1 - b) is equivalent to

        |z_n - c1|^2 + c2 * P(z') < c3,

    with the closed forms below.  As a -> 1 the triple tends to (0, 1, 1):
    the pulled-back subdomains exhaust the full ellipsoid.
    """
    if not (0.0 < a < 1.0):
        raise ValueError(f"parameter a must lie in (0, 1), got {a}")
    if not (0.0 <= b < 1.0):
        raise ValueError(f"center offset b must lie in [0, 1), got {b}")
    den = 1.0 + a - 2.0 * a * b
    c1 = b * (1.0 - a) / den
    c2 = (1.0 - b) * (1.0 + a) / den
    c3 = (1.0 + a - 2.0 * b) / den + c1 * c1
    return (c1, c2, c3)
