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

import io
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.integrate import quad

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
    "symbol_oracle",
]

TANGENT_TOL = 1e-9  # relative |ξ·n| that ``beta`` still takes as tangent
GAUSS_ORDER = 8  # Gauss–Legendre nodes per polygon segment in ``weyl_coefficient``


class WeylError(ValueError):
    """Bad input to a symbol computation."""


def theta_matrix(a: np.ndarray, n: np.ndarray) -> np.ndarray:
    """Θ = (nᵀan)a − (an)(an)ᵀ.  Symmetric, Θn = 0, PSD for SPD a."""
    a = np.asarray(a, dtype=float)
    n = np.asarray(n, dtype=float)
    an = a @ n
    return (n @ an) * a - np.outer(an, an)


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
        v = np.zeros(d)
        v[idx] = 1.0
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
    """Θ restricted to the tangent space: PᵀΘP with P = tangent_basis(n)."""
    P = tangent_basis(n)
    return P.T @ theta_matrix(a, n) @ P


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


def alpha_pm(a: np.ndarray, n: np.ndarray, rho: float) -> tuple:
    """Pointwise densities (α₊, α₋) = ω_m ρ±^m det(Θ′)^(−1/2), m = d−1."""
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is raised below
        det = float(np.linalg.det(np.atleast_2d(theta_prime(a, n))))
    if not (math.isfinite(det) and det > 0):
        raise WeylError(f"tangential co-metric is degenerate or overflows (det {det!r})")
    m = np.asarray(n).shape[0] - 1
    om = ball_volume(m)
    rp = max(rho, 0.0)
    rm = max(-rho, 0.0)
    return om * rp**m / math.sqrt(det), om * rm**m / math.sqrt(det)


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
        out = io.StringIO()
        out.write("arclength,det_theta_prime,alpha_plus,alpha_minus\n")
        for s, dt, ap, am in zip(
            self.arclength, self.det_theta_prime, self.alpha_plus, self.alpha_minus
        ):
            out.write(f"{float(s)!r},{float(dt)!r},{float(ap)!r},{float(am)!r}\n")
        return out.getvalue()


def weyl_coefficient(domain: PolygonDomain, coeff) -> WeylData:
    """W± = (2π)^(−m) ∫_Σ α± dμ by per-segment Gauss–Legendre quadrature.

    ``coeff`` provides the conductivity (``coeff.a``, evaluated at boundary
    points) and the signed weight (``coeff.rho``, at each node as a
    zero-length edge).  ``GAUSS_ORDER`` nodes per polygon segment; the
    integrand is smooth within each segment, so the rule converges fast even
    when a varies.
    """
    pts_a, pts_b = domain.segment_points()
    normals = domain.segment_normals()
    lengths = domain.segment_lengths()
    gx, gw = leggauss(GAUSS_ORDER)
    arcl, dets, aps, ams = [], [], [], []
    wp = wm = 0.0
    offset = 0.0
    m = 2 - 1  # boundary dimension for planar domains
    for i in range(len(lengths)):
        t = 0.5 * (gx + 1.0)
        pts = pts_a[i][None, :] + t[:, None] * (pts_b[i] - pts_a[i])[None, :]
        w = 0.5 * gw * lengths[i]
        a_vals = coeff.a(pts)
        rho_vals = coeff.rho(np.full(len(t), i), pts, pts)
        for q in range(len(t)):
            ap, am = alpha_pm(a_vals[q], normals[i], float(rho_vals[q]))
            tp = theta_prime(a_vals[q], normals[i])
            dets.append(float(np.linalg.det(np.atleast_2d(tp))))
            aps.append(ap)
            ams.append(am)
            arcl.append(offset + t[q] * lengths[i])
            wp += w[q] * ap
            wm += w[q] * am
        offset += lengths[i]
    factor = (2.0 * math.pi) ** (-m)
    return WeylData(
        arclength=np.array(arcl),
        det_theta_prime=np.array(dets),
        alpha_plus=np.array(aps),
        alpha_minus=np.array(ams),
        w_plus=factor * wp,
        w_minus=factor * wm,
    )


def symbol_oracle(a: np.ndarray, n: np.ndarray, xi: np.ndarray) -> float:
    """(1/2π)∫ dt / ((ξ+tn)ᵀ a (ξ+tn)) over the full line, by adaptive
    quadrature.  Independent of the Θ algebra; the product with β(x,ξ) is a
    dimensionless constant (1/2) for every SPD a and tangent ξ, which is the
    cross-check the tests pin."""
    a = np.asarray(a, dtype=float)
    n = np.asarray(n, dtype=float)
    xi = np.asarray(xi, dtype=float)

    def integrand(t):
        v = xi + t * n
        return 1.0 / (v @ a @ v)

    val, _ = quad(integrand, -np.inf, np.inf, epsabs=1e-10, epsrel=1e-10)
    return val / (2.0 * math.pi)
