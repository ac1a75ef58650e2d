"""Leading-order spectral asymptotics from boundary data.

The counting function of the weight/energy pencil grows like W±·λ^(-m) where
m is the boundary dimension (1 for planar domains).  W± is an integral over
the boundary of a quantity built pointwise from the conductivity matrix a,
the outward normal n, and the sign parts of the boundary weight ρ.  The
pointwise object is the tangential co-metric Θ = (nᵀan)a − (an)(an)ᵀ on n^⊥,
and only its determinant enters.  For unit n that is the closed form

    det Θ′ = (nᵀan)^(d−2) · det a.

Proof: for Q = (P n) orthonormal, Θ′ = PᵀΘP = (nᵀan)·S with S the Schur
complement of the corner nᵀan in QᵀaQ, so det Θ′ = (nᵀan)^(d−1) det S and
det a = (nᵀan) det S.  Everything here is dimension-generic; the quadrature
driver is planar.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from .geometry import PolygonDomain

__all__ = [
    "WeylError",
    "ball_volume",
    "cometric_det",
    "alpha_pm",
    "WeylData",
    "weyl_coefficient",
]

GAUSS_ORDER = 8  # Gauss–Legendre nodes per polygon segment in ``weyl_coefficient``


class WeylError(ValueError):
    """Bad input to a symbol computation."""


def ball_volume(m: int) -> float:
    """Volume of the unit ball in R^m (m=1 → 2, m=2 → π)."""
    return math.pi ** (m / 2) / math.gamma(m / 2 + 1)


def cometric_det(a: np.ndarray, n: np.ndarray) -> np.ndarray:
    """det Θ′ = det a · (uᵀau)^(d−2) with u = n/|n|.  Leading axes of a
    (…, d, d) and n (…, d) broadcast.

    Raises ``WeylError`` for a zero or non-finite n, and for any det Θ′ that is
    non-finite or ≤ 0 or has det a at or below 4d·ε·max|a_ij|·max|C_ij|, with
    C the cofactors of a: the rounding level of det a, reached when
    max|a_ij|·max|(a⁻¹)_ij| ≥ 1/(4dε) (in the plane the floor is
    8ε·max|a_ij|², about cond a ≥ 5e14).  The message names the first such
    det Θ′."""
    a = np.asarray(a, dtype=float)
    n = np.asarray(n, dtype=float)
    d = n.shape[-1]
    rest = np.array([np.delete(np.arange(d), i) for i in range(d)])  # row i: all but i
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        u = n / np.linalg.norm(n, axis=-1, keepdims=True)
        if not np.isfinite(u).all():
            raise WeylError("normal vector is zero or not finite")
        det_a = np.linalg.det(a)
        det = det_a * np.einsum("...i,...ij,...j->...", u, a, u) ** (d - 2)
        minors = a[..., rest[:, None, :, None], rest[None, :, None, :]]
        cofactor = np.abs(np.linalg.det(minors)).max(axis=(-2, -1))
        floor = 4 * d * np.finfo(float).eps * np.abs(a).max(axis=(-2, -1)) * cofactor
        bad = np.flatnonzero(~(np.isfinite(det) & (det > 0) & (det_a > floor)))
    if bad.size:
        first = float(np.ravel(det)[bad[0]])
        raise WeylError(f"tangential co-metric is degenerate or overflows (det {first!r})")
    return det


def _densities(det, m: int, rho) -> tuple:
    """(α₊, α₋) from det Θ′; ρ± = max(±ρ, 0), a positive zero where ±ρ ≤ 0."""
    rho = np.asarray(rho, dtype=float)
    om, root = ball_volume(m), np.sqrt(det)
    return tuple(om * np.where(r > 0.0, r, 0.0) ** m / root for r in (rho, -rho))


def alpha_pm(a: np.ndarray, n: np.ndarray, rho) -> tuple:
    """Pointwise densities (α₊, α₋) = ω_m ρ±^m det(Θ′)^(−1/2), m = d−1, over broadcast
    leading axes of a, n and ρ; a ``WeylError`` names the first bad det Θ′."""
    return _densities(cometric_det(a, n), np.shape(n)[-1] - 1, rho)


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
    """W± = (2π)^(−m) ∫_Σ α± dμ with ``GAUSS_ORDER`` Gauss–Legendre nodes per
    polygon segment (``PolygonDomain.segment_nodes``).  ``coeff.a`` and the
    signed weight ``coeff.rho`` (each node a zero-length edge) are called once
    over all nodes, α± is one array pass, and the sums run in boundary order.
    The integrand is smooth within each segment, so the rule converges fast."""
    gx, gw = leggauss(GAUSS_ORDER)
    t = 0.5 * (gx + 1.0)
    pts, seg = domain.segment_nodes(t)
    shape = (domain.n_segments, GAUSS_ORDER)
    det = cometric_det(coeff.a(pts).reshape(*shape, 2, 2), domain.segment_normals()[:, None])
    m = 2 - 1  # boundary dimension for planar domains
    ap, am = _densities(det, m, coeff.rho(seg, pts, pts).reshape(shape))
    lengths = domain.segment_lengths()[:, None]
    w = 0.5 * gw * lengths
    offset = np.concatenate([[0.0], np.cumsum(lengths)[:-1]])[:, None]
    factor = (2.0 * math.pi) ** (-m)
    return WeylData(
        arclength=(offset + t * lengths).ravel(),
        det_theta_prime=det.ravel(),
        alpha_plus=ap.ravel(),
        alpha_minus=am.ravel(),
        w_plus=factor * np.cumsum(w * ap)[-1],
        w_minus=factor * np.cumsum(w * am)[-1],
    )
