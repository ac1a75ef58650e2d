"""Reference values computed independently of the package.

Everything here is derived from closed forms or brute-force numerics that
share no code with ``steklovlab``: Bessel recurrences for the disk pencil,
the square's Steklov spectrum by separation of variables,
ellipsoid volumes by Monte Carlo, the boundary symbol integral by adaptive
quadrature, the tangential co-metric Θ built in an explicit tangent basis,
dense tensor quadrature for single-element energy integrals, the layer
matrices from per-panel closed forms, the distance to a polygon's boundary
over all point-segment pairs at once, and synthetic eigenvalue sequences with
known tails.  Two mesh measures and a tracemalloc probe that only the tests
read live here too.
"""

import math
import tracemalloc

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.special import iv


# Largest eigenpair residual the tests accept from ``eigensolve.solve_dense``.
DENSE_RESIDUAL_TOL = 1e-8

# ---------------------------------------------------------------------------
# disk pencil: -div(grad u) + v0 u = 0 inside, du/dn = sigma u on the circle.
# Separation in polar coordinates gives u = I_k(sqrt(v0) r) e^{i k theta} and
#
#   sigma_k = sqrt(v0) I_k'(sqrt(v0) R) / I_k(sqrt(v0) R),
#
# with I_0' = I_1 and I_k' = (I_{k-1} + I_{k+1})/2.  The pencil eigenvalues
# are mu = 1/sigma, ordered decreasing; k = 0 is simple, k >= 1 double.


def disk_dtn_eigenvalue(k: int, v0: float = 1.0, radius: float = 1.0) -> float:
    x = np.sqrt(v0) * radius
    if k == 0:
        deriv = iv(1, x)
    else:
        deriv = 0.5 * (iv(k - 1, x) + iv(k + 1, x))
    return float(np.sqrt(v0) * deriv / iv(k, x))


def disk_pencil_eigenvalues(count: int, v0: float = 1.0, radius: float = 1.0):
    """First ``count`` reciprocals 1/sigma_k with multiplicity, decreasing."""
    mus = [1.0 / disk_dtn_eigenvalue(0, v0, radius)]
    k = 1
    while len(mus) < count:
        m = 1.0 / disk_dtn_eigenvalue(k, v0, radius)
        mus.extend([m, m])
        k += 1
    return np.array(mus[:count])


# Frozen evaluations of the above for v0 = 1, R = 1 (12 digits).
DISK_V1_MU = np.array(
    [
        2.240193723870,
        0.806325641513,
        0.806325641513,
        0.462255430177,
        0.462255430177,
        0.320156819045,
        0.320156819045,
        0.243951325537,
        0.243951325537,
    ]
)
# #{mu >= 1/10.5} for the same pencil: k = 0 plus ten double modes.
DISK_V1_COUNT_AT_10_5 = 21


# ---------------------------------------------------------------------------
# unit-circle layer operators.  In the Fourier basis e^{i k theta} the
# single layer has eigenvalues 1/(2|k|) (logarithmic capacity mode at k = 0)
# and the double layer vanishes on mean-zero densities, so the
# Neumann-to-Dirichlet map has eigenvalues 1/|k|.


def circle_single_layer_eigenvalue(k: int) -> float:
    if k == 0:
        raise ValueError("k = 0 is the capacity mode, not a Fourier pair")
    return 1.0 / (2.0 * abs(k))


def circle_nd_eigenvalue(k: int) -> float:
    if k == 0:
        raise ValueError("constants are quotiented out of the ND map")
    return 1.0 / abs(k)


# ---------------------------------------------------------------------------
# square Steklov spectrum (Girouard and Polterovich, J. Spectral Theory 7,
# 2017).  On (-1, 1)^2 the products u = phi(x) psi(y) +- psi(x) phi(y), with
# phi in {cos ax, sin ax} and psi in {cosh ax, sinh ax}, satisfy the Steklov
# condition on all four sides when phi'(1)/phi(1) = psi'(1)/psi(1) = sigma.
# That gives four families, each root a > 0 a double eigenvalue:
#
#   tan a = -tanh a  and  cot a = tanh a,   sigma = a tanh a,
#   tan a = -coth a  and  tan a = tanh a,   sigma = a coth a,
#
# plus sigma = 1 (u = xy) and sigma = 0, both simple.  On a square of side s
# every sigma scales by 2/s.  The conditions are written with tanh only, so
# each family is a bounded function with one root per period of pi.

_SQUARE_FAMILIES = (
    (lambda a: np.sin(a) + np.cos(a) * np.tanh(a), np.tanh),
    (lambda a: np.cos(a) - np.sin(a) * np.tanh(a), np.tanh),
    (lambda a: np.cos(a) + np.sin(a) * np.tanh(a), lambda a: 1.0 / np.tanh(a)),
    (lambda a: np.sin(a) - np.cos(a) * np.tanh(a), lambda a: 1.0 / np.tanh(a)),
)


def square_steklov_eigenvalues(count: int, side: float = 1.0) -> np.ndarray:
    """First ``count`` Steklov eigenvalues of the square, with multiplicity,
    ascending."""
    top = math.pi * (count / 8 + 2)
    while True:
        grid = np.linspace(0.0, top, int(64 * top) + 1)[1:]
        sigma = [0.0, 1.0]
        for cond, factor in _SQUARE_FAMILIES:
            f = cond(grid)
            for j in np.flatnonzero(np.sign(f[:-1]) != np.sign(f[1:])):
                a = brentq(cond, grid[j], grid[j + 1], xtol=1e-15, rtol=1e-15)
                sigma += [a * factor(a)] * 2
        sigma = np.sort(sigma)
        # a root beyond ``top`` gives sigma > top tanh(top): below that the
        # list is complete
        if len(sigma) >= count and sigma[count - 1] < top * math.tanh(top):
            return 2.0 / side * sigma[:count]
        top *= 2


# ---------------------------------------------------------------------------
# ellipsoid volume: vol{xi in R^m : xi^T Q xi <= r^2} for SPD Q equals
# omega_m r^m det(Q)^{-1/2}.  Monte Carlo over a bounding box gives an
# estimate that is independent of that closed form.


def ellipsoid_volume_mc(Q, r: float, n: int = 1_000_000, seed: int = 7) -> float:
    Q = np.asarray(Q, dtype=float)
    m = Q.shape[0]
    # bounding half-widths: |xi_i| <= r / sqrt(min eig) is enough
    half = r / np.sqrt(np.linalg.eigvalsh(Q).min())
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-half, half, size=(n, m))
    inside = np.einsum("ni,ij,nj->n", pts, Q, pts) <= r * r
    return float(inside.mean() * (2.0 * half) ** m)


# ---------------------------------------------------------------------------
# tangential co-metric by construction: Θ = (nᵀan)a − (an)(an)ᵀ, restricted to
# n^⊥ through a Gram–Schmidt tangent basis.  Its determinant checks
# det Θ′ = det a, which ``weyl`` takes in the plane without a normal, and
# β(x, ξ) = √(ξᵀΘξ) is the symbol's tangential length.

TANGENT_TOL = 1e-9  # relative |ξ·n| that ``beta`` still takes as tangent


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
        raise ValueError("normal vector is zero")
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
            raise ValueError("degenerate tangent seed")
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
        raise ValueError("beta requires a tangent covector")
    return float(np.sqrt(xi @ theta_matrix(a, n) @ xi))


# ---------------------------------------------------------------------------
# symbol integral: (1/2π)∫ dt / ((ξ+tn)ᵀ a (ξ+tn)) over the full line, by
# adaptive quadrature.  Independent of the Θ algebra; its product with
# β(x,ξ) = √(ξᵀΘξ) is the dimensionless constant 1/2 for every SPD a and
# tangent ξ.


def symbol_oracle(a, n, xi) -> float:
    a = np.asarray(a, dtype=float)
    n = np.asarray(n, dtype=float)
    xi = np.asarray(xi, dtype=float)

    def integrand(t):
        v = xi + t * n
        return 1.0 / (v @ a @ v)

    val, _ = quad(integrand, -np.inf, np.inf, epsabs=1e-10, epsrel=1e-10)
    return val / (2.0 * math.pi)


# ---------------------------------------------------------------------------
# single-element energy integral by dense midpoint quadrature.  Subdivides
# the triangle into 4**levels congruent pieces and sums centroid values;
# the integrand is evaluated through plain lambdas, no package code.


def element_energy_brute(tri, grad_u, grad_w, a_fn, levels: int = 6) -> float:
    tri = np.asarray(tri, dtype=float)
    verts = [
        (np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0]), np.array([0.0, 0.0, 1.0]))
    ]
    for _ in range(levels):
        nxt = []
        for v0, v1, v2 in verts:
            m01, m12, m20 = 0.5 * (v0 + v1), 0.5 * (v1 + v2), 0.5 * (v2 + v0)
            nxt += [
                (v0, m01, m20),
                (m01, v1, m12),
                (m20, m12, v2),
                (m01, m12, m20),
            ]
        verts = nxt
    bary = np.array([(v0 + v1 + v2) / 3.0 for v0, v1, v2 in verts])
    pts = bary @ tri
    e1, e2 = tri[1] - tri[0], tri[2] - tri[0]
    area = 0.5 * abs(e1[0] * e2[1] - e1[1] * e2[0])
    w = area / len(verts)
    a = a_fn(pts)
    gu = np.asarray(grad_u, dtype=float)
    gw = np.asarray(grad_w, dtype=float)
    return float(np.einsum("nij,j,i->n", a, gu, gw).sum() * w)


# ---------------------------------------------------------------------------
# straight-panel layer matrices, one panel at a time: each entry integrates
# the kernel over panel j in that panel's own frame (u along, v across, both
# from its midpoint, half-length a), with the two ends ±a evaluated for every
# panel.  The double layer is the angle the panel subtends at the row's
# midpoint, (arctan((a − u)/v) + arctan((a + u)/v))/2π, 0 for v = 0; the
# single layer takes 4 Gauss points on the row's panel and the exact inner
# integral of log r², from the primitive w·log(w² + v²) − 2w + 2v·arctan(w/v)
# at w = ±a − u, with the self entries in closed form.  Both are returned in
# the orthonormal basis χ_i/√ℓ_i, S symmetrized.


def _log_primitive(w, v):
    r2 = w * w + v * v
    with np.errstate(divide="ignore", invalid="ignore"):
        out = w * np.log(r2) - 2.0 * w + 2.0 * v * np.arctan(w / v)
    return np.where(r2 == 0.0, 0.0, out)


def panel_layer_matrices(mid, length, tangent, normal):
    """(S, D) of straight panels from per-panel closed forms, one row at a
    time."""
    n = len(length)
    a = 0.5 * length
    s = np.sqrt(length)
    gx, gw = np.polynomial.legendre.leggauss(4)
    S = np.empty((n, n))
    D = np.empty((n, n))
    for i in range(n):
        dx = mid[i] - mid
        u = dx[:, 0] * tangent[:, 0] + dx[:, 1] * tangent[:, 1]
        v = dx[:, 0] * normal[:, 0] + dx[:, 1] * normal[:, 1]
        with np.errstate(divide="ignore", invalid="ignore"):
            row = (np.arctan((a - u) / v) + np.arctan((a + u) / v)) / (2.0 * math.pi)
        D[i] = np.where(v == 0.0, 0.0, row) * s[i] / s
        xi = mid[i] + gx[:, None] * (a[i] * tangent[i])  # (q, 2)
        dq = xi[:, None, :] - mid[None, :, :]
        uq = dq[..., 0] * tangent[:, 0] + dq[..., 1] * tangent[:, 1]
        vq = dq[..., 0] * normal[:, 0] + dq[..., 1] * normal[:, 1]
        inner = _log_primitive(a - uq, vq) - _log_primitive(-a - uq, vq)
        S[i] = -(gw @ inner) * a[i] / (4.0 * math.pi) / (s[i] * s)
    self_term = -(length * length) * (np.log(length) - 1.5) / (2.0 * math.pi)
    np.fill_diagonal(S, self_term / length)
    return 0.5 * (S + S.T), D


# ---------------------------------------------------------------------------
# synthetic spectra with prescribed tails: mu_k = (W/k)^(1/d) makes
# lambda^d n(lambda) converge to exactly W.


def synthetic_tail_sequence(W: float, d: int, count: int) -> np.ndarray:
    k = np.arange(1, count + 1, dtype=float)
    return (W / k) ** (1.0 / d)


# ---------------------------------------------------------------------------
# distance to a polygon's boundary, every point against every segment in one
# (points, segments, 2) broadcast: project onto each segment, clamp the
# parameter to [0, 1], and take the nearest of the closest points.


def boundary_distance(p, q, pts):
    """Distance from each of ``pts`` to the segments from ``p[i]`` to ``q[i]``."""
    d = q - p
    L2 = np.sum(d * d, axis=1)
    w = pts[:, None, :] - p[None, :, :]
    t = np.clip(np.einsum("psk,sk->ps", w, d) / L2[None, :], 0.0, 1.0)
    closest = p[None, :, :] + t[:, :, None] * d[None, :, :]
    return np.linalg.norm(pts[:, None, :] - closest, axis=2).min(axis=1)


# ---------------------------------------------------------------------------
# mesh measures and memory


def triangle_areas(mesh) -> np.ndarray:
    """Signed area of each triangle, positive for a CCW triangle."""
    p = mesh.nodes
    t = mesh.triangles
    d1 = p[t[:, 1]] - p[t[:, 0]]
    d2 = p[t[:, 2]] - p[t[:, 0]]
    return 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])


def boundary_nodes(mesh) -> np.ndarray:
    """Sorted ids of the nodes on a boundary edge."""
    return np.unique(mesh.boundary_edges)


def traced_peak_mib(fn, *args) -> float:
    """Peak of memory traced by ``tracemalloc`` during ``fn(*args)``, in MiB."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
