"""Leading-order spectral asymptotics from boundary data.

The counting function of the weight/energy pencil on a planar domain grows
like W±·λ^(-1).  W± is an integral over the boundary curve of the sign parts
ρ± of the boundary weight against the determinant of the tangential co-metric
Θ′ built from the conductivity matrix a.  On a curve that determinant is
det a, whatever the normal, so

    W± = (1/π) ∫ ρ± / √(det a) ds,

which for a = I and ρ = 1 is the perimeter over π.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from .geometry import PolygonDomain

__all__ = ["WeylError", "WeylData", "weyl_coefficient"]

GAUSS_ORDER = 8  # Gauss–Legendre nodes per polygon segment in ``weyl_coefficient``
OMEGA_1 = 1.9999999999999998  # length of the unit ball [−1, 1], as √π/Γ(3/2) rounds it


class WeylError(ValueError):
    """Bad input to a symbol computation."""


def _planar_det(a: np.ndarray) -> np.ndarray:
    """det Θ′ = det a over the leading axes of a (…, 2, 2): in the frame (n, τ),
    Θ′ = τᵀΘτ = (nᵀan)(τᵀaτ) − (τᵀan)² = det a for every unit normal n.

    Raises ``WeylError`` for any det a that is non-finite or does not exceed
    its rounding level 8ε·max|a_ij|² (so also any det a ≤ 0), reached at
    about cond a ≥ 5e14, and for any a with a₁₁ ≤ 0: a positive det a and a
    positive a₁₁ make a positive definite, where det(−I) = 1 alone would
    not.  The message names the first such det a and its a₁₁."""
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        det = np.linalg.det(a)
        amax = np.abs(a).max(axis=(-2, -1))
        floor = 4 * 2 * np.finfo(float).eps * amax * amax
        bad = np.flatnonzero(~(np.isfinite(det) & (det > floor) & (a[..., 0, 0] > 0)))
    if bad.size:
        first = float(np.ravel(det)[bad[0]])
        a11 = float(np.ravel(a[..., 0, 0])[bad[0]])
        raise WeylError(
            "tangential co-metric is degenerate, overflows or is not positive definite "
            f"(det {first!r}, a11 {a11!r})"
        )
    return det


def _densities(det, rho) -> tuple:
    """(α₊, α₋) = ω₁ ρ± / √(det Θ′); ρ± = max(±ρ, 0), a positive zero where ±ρ ≤ 0."""
    rho = np.asarray(rho, dtype=float)
    root = np.sqrt(det)
    return tuple(OMEGA_1 * np.where(r > 0.0, r, 0.0) / root for r in (rho, -rho))


@dataclass
class WeylData:
    """Boundary quadrature trace of the asymptotic coefficient.

    One row per quadrature node, in boundary order.  ``w_plus``/``w_minus``
    are the integrated coefficients for the two spectral branches.
    """

    arclength: np.ndarray
    det_theta_prime: np.ndarray
    alpha_plus: np.ndarray
    alpha_minus: np.ndarray
    w_plus: float
    w_minus: float

    def to_csv(self) -> str:
        rows = zip(self.arclength, self.det_theta_prime, self.alpha_plus, self.alpha_minus)
        return "arclength,det_theta_prime,alpha_plus,alpha_minus\n" + "".join(
            ",".join(repr(float(x)) for x in row) + "\n" for row in rows
        )


def weyl_coefficient(domain: PolygonDomain, coeff) -> WeylData:
    """W± = (2π)⁻¹ ∫_Σ α± ds with ``GAUSS_ORDER`` Gauss–Legendre nodes per
    polygon segment (``PolygonDomain.segment_nodes``).  ``coeff.a`` and the
    signed weight ``coeff.rho`` (each node a zero-length edge) are called once
    over all nodes, α± is one array pass, and the sums run in boundary order.
    The integrand is smooth within each segment, so the rule converges fast."""
    gx, gw = leggauss(GAUSS_ORDER)
    t = 0.5 * (gx + 1.0)
    pts, seg = domain.segment_nodes(t)
    shape = (domain.n_segments, GAUSS_ORDER)
    det = _planar_det(coeff.a(pts)).reshape(shape)
    ap, am = _densities(det, coeff.rho(seg, pts, pts).reshape(shape))
    lengths = domain.segment_lengths()[:, None]
    w = 0.5 * gw * lengths
    offset = np.concatenate([[0.0], np.cumsum(lengths)[:-1]])[:, None]
    factor = (2.0 * math.pi) ** -1
    return WeylData(
        arclength=(offset + t * lengths).ravel(),
        det_theta_prime=det.ravel(),
        alpha_plus=ap.ravel(),
        alpha_minus=am.ravel(),
        w_plus=factor * np.cumsum(w * ap)[-1],
        w_minus=factor * np.cumsum(w * am)[-1],
    )
