"""Leading-order spectral asymptotics from boundary data.

The counting function of the weight/energy pencil grows like W±·λ^(-m) where
m is the boundary dimension (1 for planar domains).  W± is an integral over
the boundary of a quantity built pointwise from the conductivity matrix a,
the outward normal n, and the sign parts of the boundary weight ρ.  The
pointwise object is the tangential co-metric

    Θ(x) = (nᵀ a n) a − (a n)(a n)ᵀ,

which annihilates n and is positive definite on the tangent space whenever a
is SPD.  Everything here is dimension-generic; the quadrature driver is
planar.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from .geometry import PolygonDomain

__all__ = [
    "WeylError",
    "theta_matrix",
    "tangent_basis",
    "theta_prime",
    "beta",
    "ball_volume",
    "alpha_pm",
    "WeylData",
    "weyl_coefficient",
]

TANGENT_TOL = 1e-9  # relative |ξ·n| that ``beta`` still takes as tangent
GAUSS_ORDER = 8  # Gauss–Legendre nodes per polygon segment in ``weyl_coefficient``


class WeylError(ValueError):
    """Bad input to a symbol computation."""


def theta_matrix(a: np.ndarray, n: np.ndarray) -> np.ndarray:
    """Θ = (nᵀan)a − (an)(an)ᵀ.  Symmetric, Θn = 0, PSD for SPD a.  Leading
    axes of a (…, d, d) and n (…, d) broadcast."""
    a = np.asarray(a, dtype=float)
    n = np.asarray(n, dtype=float)[..., None]
    an = a @ n
    return (np.swapaxes(n, -1, -2) @ an) * a - an * np.swapaxes(an, -1, -2)


def tangent_basis(n: np.ndarray) -> np.ndarray:
    """Deterministic orthonormal basis of n^⊥, returned as columns of a
    d×(d−1) matrix.

    Seeds are the coordinate axes ordered by increasing |n_i| (ties broken by
    index), orthogonalized against n and each other; each resulting column is
    sign-fixed to have positive inner product with its seed axis.
    """
    n = np.asarray(n, dtype=float)
    d = n.shape[0]
    nn = np.linalg.norm(n)
    if nn == 0:
        raise WeylError("normal vector is zero")
    n = n / nn
    order = np.argsort(np.abs(n), kind="stable")
    cols = []
    for idx in order[: d - 1]:
        v = np.eye(d)[idx]
        v -= (v @ n) * n
        for c in cols:
            v -= (v @ c) * c
        nv = np.linalg.norm(v)
        if nv < 1e-12:
            raise WeylError("degenerate tangent seed")
        v /= nv
        if v[idx] < 0:
            v = -v
        cols.append(v)
    return np.column_stack(cols)


def theta_prime(a: np.ndarray, n: np.ndarray) -> np.ndarray:
    """Θ restricted to the tangent space: PᵀΘP with P = tangent_basis(n), one
    basis per normal.  Leading axes of a and n broadcast."""
    n = np.asarray(n, dtype=float)
    d = n.shape[-1]
    P = np.array([tangent_basis(v) for v in n.reshape(-1, d)]).reshape(*n.shape, d - 1)
    return np.swapaxes(P, -1, -2) @ theta_matrix(a, n) @ P


def beta(a: np.ndarray, n: np.ndarray, xi: np.ndarray) -> float:
    """β(x, ξ) = √(ξᵀΘξ) for a tangent covector ξ (checked against n)."""
    xi = np.asarray(xi, dtype=float)
    n = np.asarray(n, dtype=float)
    nrm = np.linalg.norm(xi) * np.linalg.norm(n)
    if nrm > 0 and abs(xi @ n) > TANGENT_TOL * nrm:
        raise WeylError("beta requires a tangent covector")
    return float(np.sqrt(xi @ theta_matrix(a, n) @ xi))


def ball_volume(m: int) -> float:
    """Volume of the unit ball in R^m (m=1 → 2, m=2 → π)."""
    return math.pi ** (m / 2) / math.gamma(m / 2 + 1)


def _checked_det(a: np.ndarray, n: np.ndarray) -> np.ndarray:
    """det Θ′ of every (a, n), refused when any is non-finite or ≤ 0."""
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is raised below
        det = np.linalg.det(theta_prime(a, n))
    bad = np.flatnonzero(~(np.isfinite(det) & (det > 0)))
    if bad.size:
        first = float(np.ravel(det)[bad[0]])
        raise WeylError(f"tangential co-metric is degenerate or overflows (det {first!r})")
    return det


def _densities(det, m: int, rho) -> tuple:
    """(α₊, α₋) from det Θ′; ρ± = max(±ρ, 0) as Python's ``max`` takes it."""
    rho = np.asarray(rho, dtype=float)
    om, root = ball_volume(m), np.sqrt(det)
    return tuple(om * np.where(r < 0.0, 0.0, r) ** m / root for r in (rho, -rho))


def alpha_pm(a: np.ndarray, n: np.ndarray, rho) -> tuple:
    """Pointwise densities (α₊, α₋) = ω_m ρ±^m det(Θ′)^(−1/2), m = d−1, over broadcast
    leading axes of a, n and ρ; a ``WeylError`` names the first bad det Θ′."""
    return _densities(_checked_det(a, n), np.shape(n)[-1] - 1, rho)


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
    det = _checked_det(coeff.a(pts).reshape(*shape, 2, 2), domain.segment_normals()[:, None])
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
