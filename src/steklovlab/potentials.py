"""Boundary-integral route to the Neumann-to-Dirichlet map on polygons.

Straight panels with piecewise-constant densities and midpoint collocation.
All matrices are stored in the *orthonormalized* indicator basis
e_i = χ_i/√ℓ_i, in which the panel-length-weighted L² inner product becomes
the plain dot product: the single layer is then genuinely symmetric and the
adjoint of the double layer is the plain transpose ``D.T``.

Kernel conventions: the fundamental solution is −(1/2π)·log|x−y| and the
double layer kernel is ⟨x−y, n(y)⟩ / (2π|x−y|²), whose boundary integral
against the constant density equals −1/2 at every smooth boundary point
(Gauss identity).  Panel integrals of both kernels are evaluated in closed
form, so that identity holds to roundoff at every resolution.
"""

from __future__ import annotations

import ctypes
import math
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
from numpy.polynomial.legendre import leggauss
from scipy.linalg import cython_lapack

from .geometry import PolygonDomain

__all__ = [
    "PotentialsError",
    "PanelSet",
    "NystromOperator",
    "build_layer_operators",
    "jump_relation_error",
    "NDResult",
    "nd_operator",
]

PANEL_BUDGET = 6000
CONDITION_LIMIT = 1e12
RESCALE_DIAMETER = 0.8  # < 1: the single layer is positive on mean-zero densities
FILL_BLOCK = 2**18  # rows × panels per block of the layer fill


class PotentialsError(RuntimeError):
    """Panel budget, conditioning, or resolution contract violated."""


# ---------------------------------------------------------------------------
# panel geometry


@dataclass(frozen=True)
class PanelSet:
    """Straight-panel subdivision of a polygon boundary."""

    mid: np.ndarray
    length: np.ndarray
    tangent: np.ndarray
    normal: np.ndarray

    def __len__(self) -> int:
        return len(self.length)


def _build_panels(domain: PolygonDomain, panels_per_edge: int) -> PanelSet:
    if panels_per_edge < 1:
        raise PotentialsError("panels_per_edge must be at least 1")
    pa, pb = domain.segment_points()
    nseg = len(pa)
    total = nseg * panels_per_edge
    if total > PANEL_BUDGET:
        raise PotentialsError(
            f"{total} panels exceed the budget of {PANEL_BUDGET}"
        )
    normals = domain.segment_normals()
    t = np.arange(panels_per_edge + 1) / panels_per_edge
    starts, ends, nrm = [], [], []
    for i in range(nseg):
        pts = pa[i][None, :] + t[:, None] * (pb[i] - pa[i])[None, :]
        starts.append(pts[:-1])
        ends.append(pts[1:])
        nrm.append(np.tile(normals[i], (panels_per_edge, 1)))
    start = np.vstack(starts)
    end = np.vstack(ends)
    mid = 0.5 * (start + end)
    vec = end - start
    length = np.hypot(vec[:, 0], vec[:, 1])
    tangent = vec / length[:, None]
    return PanelSet(mid=mid, length=length, tangent=tangent, normal=np.vstack(nrm))


# ---------------------------------------------------------------------------
# kernel fills

_GAUSS_X, _GAUSS_W = leggauss(4)


def _fill(mid, tangent, normal, length):
    """Galerkin single layer (outer Gauss × exact inner) and collocated
    double layer, both over straight panels.

    Both are filled in one pass over blocks of ``FILL_BLOCK // n`` rows, so
    the largest temporaries hold 4·FILL_BLOCK Gauss-point values (8 MiB)
    whatever n is.  Every entry is the same elementwise arithmetic in any
    block size, so S and D do not depend on the blocking."""
    n = mid.shape[0]
    S = np.empty((n, n))
    D = np.empty((n, n))
    a = 0.5 * length

    def primitive(w, vv):
        r2 = w * w + vv * vv
        with np.errstate(divide="ignore", invalid="ignore"):
            out = w * np.log(r2) - 2.0 * w + 2.0 * vv * np.arctan(w / vv)
            flat = w * np.log(w * w) - 2.0 * w
        out = np.where(vv == 0.0, flat, out)
        return np.where(r2 == 0.0, 0.0, out)

    block = max(1, FILL_BLOCK // max(n, 1))
    for lo in range(0, n, block):
        hi = min(n, lo + block)
        # double layer: the block's midpoints against all panels
        dx = mid[lo:hi, None, 0] - mid[None, :, 0]
        dy = mid[lo:hi, None, 1] - mid[None, :, 1]
        u = dx * tangent[None, :, 0] + dy * tangent[None, :, 1]
        v = dx * normal[None, :, 0] + dy * normal[None, :, 1]
        with np.errstate(divide="ignore", invalid="ignore"):
            dmat = (np.arctan((a[None, :] - u) / v) + np.arctan((a[None, :] + u) / v)) / (
                2.0 * math.pi
            )
        dmat[v == 0.0] = 0.0  # includes the diagonal
        D[lo:hi] = dmat
        # single layer: four Gauss points on each of the block's panels
        xi = (
            mid[lo:hi, None, :]
            + _GAUSS_X[None, :, None] * (a[lo:hi, None, None] * tangent[lo:hi, None, :])
        )  # (b, q, 2)
        dxq = xi[:, :, None, 0] - mid[None, None, :, 0]
        dyq = xi[:, :, None, 1] - mid[None, None, :, 1]
        uq = dxq * tangent[None, None, :, 0] + dyq * tangent[None, None, :, 1]
        vq = dxq * normal[None, None, :, 0] + dyq * normal[None, None, :, 1]
        inner = primitive(a[None, None, :] - uq, vq) - primitive(
            -a[None, None, :] - uq, vq
        )
        acc = np.einsum("q,bqj->bj", _GAUSS_W, inner) * a[lo:hi, None]
        S[lo:hi] = -acc / (4.0 * math.pi)
    li = length
    np.fill_diagonal(S, -(li * li) * (np.log(li) - 1.5) / (2.0 * math.pi))
    return S, D


# ---------------------------------------------------------------------------
# operator container


@dataclass
class NystromOperator:
    """Single/double layer pair on a panelized polygon, in the orthonormal
    basis (the adjoint double layer is ``D.T``).

    ``scale`` is the factor the original domain was multiplied by before the
    build (1.0 when rescaling was disabled); eigenvalue-like outputs must be
    divided by it to refer to the original geometry.
    """

    panels: PanelSet
    S: np.ndarray
    D: np.ndarray
    scale: float

    @property
    def n(self) -> int:
        return len(self.panels)

    @property
    def sqrt_length(self) -> np.ndarray:
        return np.sqrt(self.panels.length)


def build_layer_operators(
    domain: PolygonDomain,
    panels_per_edge: int,
    *,
    rescale: bool = True,
) -> NystromOperator:
    """Panelize the boundary and fill the layer matrices.

    With ``rescale`` the domain is first scaled to diameter
    ``RESCALE_DIAMETER``, which keeps the single layer positive on mean-zero
    densities by the logarithmic capacity condition; without it the build
    runs on the original geometry.
    """
    scale = 1.0
    dom = domain
    if rescale:
        scale = RESCALE_DIAMETER / domain.diameter
        dom = domain.scaled(scale)
    panels = _build_panels(dom, panels_per_edge)
    Sg, Draw = _fill(panels.mid, panels.tangent, panels.normal, panels.length)
    s = np.sqrt(panels.length)
    S = Sg / (s[:, None] * s[None, :])
    S = 0.5 * (S + S.T)
    D = (Draw * s[:, None]) / s[None, :]
    return NystromOperator(panels=panels, S=S, D=D, scale=scale)


# ---------------------------------------------------------------------------
# Gauss identity


def jump_relation_error(op: NystromOperator) -> dict:
    """Residual of the discrete Gauss identity: the double layer applied to
    the constant density must equal −1/2 at every collocation midpoint.

    Returns ``{"max_error": …}``, the largest residual over the midpoints.
    With closed-form panel integrals it is pure roundoff at any resolution.
    """
    s = op.sqrt_length
    raw = (op.D / s[:, None]) * s[None, :]  # acts on collocation values
    return {"max_error": float(np.abs(raw.sum(axis=1) + 0.5).max())}


# ---------------------------------------------------------------------------
# Neumann-to-Dirichlet map


def _reflection(op: NystromOperator) -> tuple[np.ndarray, float]:
    """u and c of the Householder reflection H = I − c·uuᵀ that maps
    w = √ℓ/‖√ℓ‖ onto e₀ (u = w − e₀, c = 2/uᵀu).

    In the orthonormal panel basis the constant function has coefficients
    √ℓ_i, so mean-zero (with the panel-length-weighted inner product) is
    plain orthogonality to w, and the columns H[:, 1:] are an orthonormal
    basis of the mean-zero densities.
    """
    u = op.sqrt_length / np.linalg.norm(op.sqrt_length)
    u[0] -= 1.0
    return u, 2.0 / (u @ u)


def _project(M: np.ndarray, u: np.ndarray, c: float, order: str = "C") -> np.ndarray:
    """(H M H)[1:, 1:] for H = I − c·uuᵀ in O(n²): one matrix-vector
    product per side and two rank-one updates.  ``order`` is the memory
    layout of the result; it does not change its values."""
    r = M.T @ u  # H M = M − c·u rᵀ
    p = M @ u - c * (r @ u) * u  # (H M) u
    out = np.subtract(M[1:, 1:], np.outer(c * u[1:], r[1:]), order=order)
    out -= np.outer(c * p[1:], u[1:])
    return out


def _dgecon():
    """LAPACK ``dgecon`` from scipy's Cython LAPACK table as a ctypes function.

    scipy's f2py wrapper allocates the work array wherever the heap puts it,
    and OpenBLAS's vector kernels round the estimate differently with that
    array's alignment; called this way, the caller supplies the array."""
    api = ctypes.pythonapi
    name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(("PyCapsule_GetName", api))
    pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", api)
    )
    capsule = cython_lapack.__pyx_capi__["dgecon"]
    return ctypes.CFUNCTYPE(None, *[ctypes.c_void_p] * 9)(pointer(capsule, name(capsule)))


_DGECON = _dgecon()


def _condition(lu: np.ndarray, anorm: float) -> float:
    """1/rcond from LAPACK's 1-norm estimate on an LU factor, with the work
    array on a 64-byte boundary so that the value is the same in every
    process."""
    lu = np.asfortranarray(lu, dtype=np.float64)  # no copy for lu_factor's output
    n = lu.shape[0]
    work = np.empty(4 * n + 8)
    work = work[(-work.ctypes.data % 64) // 8 :]
    iwork = np.empty(n, dtype=np.intc)
    size, norm, rcond = ctypes.c_int(n), ctypes.c_double(anorm), ctypes.c_double()
    ref = ctypes.byref
    _DGECON(
        b"1", ref(size), lu.ctypes.data, ref(size), ref(norm), ref(rcond),
        work.ctypes.data, iwork.ctypes.data, ref(ctypes.c_int()),
    )
    return 1.0 / rcond.value if rcond.value > 0 else math.inf


@dataclass
class NDResult:
    """Discrete Neumann-to-Dirichlet map on mean-zero densities.

    ``matrix`` is the symmetrized primary route in the basis H[:, 1:], the
    last n − 1 columns of the Householder reflection H that maps √ℓ/‖√ℓ‖
    onto e₀ (``_reflection``); ``eigenvalues`` are descending and already
    rescaled to the original (unscaled) geometry.  ``route_gap`` is the
    relative difference between the direct solve and the split form, which
    agree by an exact algebraic identity; ``asymmetry`` is the relative skew
    part of the primary route, a pure discretization error.
    """

    matrix: np.ndarray
    eigenvalues: np.ndarray
    condition: float
    route_gap: float
    asymmetry: float


def nd_operator(op: NystromOperator) -> NDResult:
    """Neumann-to-Dirichlet operator ND = S(½ + D*)⁻¹ projected to
    mean-zero, with the split form 2S − 2SD*(½ + D*)⁻¹ as cross-check.

    The single-layer ansatz u = S[σ] turns Neumann data g into the
    density equation (½I + D*)σ = g, so the trace map g ↦ u|∂Ω is
    S(½ + D*)⁻¹ with the *adjoint* double layer.  On a circle D and D*
    both vanish on mean-zero densities, so only corner domains separate
    the two; using D here converges to a wrong limit.

    S and D* are projected to mean-zero as Ŝ = (H S H)[1:, 1:] and
    D̂* = (H Dᵀ H)[1:, 1:], with the reflection H = I − c·uuᵀ applied to
    rows and columns in O(n²) (no basis matrix is formed).  One LU
    factorization of A = ½I + D̂*, formed and factored in D̂*'s memory,
    serves both routes (each solves Aᵀ Yᵀ = Xᵀ in place of X, so the stage
    peaks at about 4·n² doubles) and the condition estimate, which is
    LAPACK's 1-norm estimate from that factor with ‖A‖₁ floored at ½.  The
    floor measures distance to singularity against the ½I part of the
    operator: a D̂* that cancels it leaves A at roundoff size, whose
    scale-invariant condition number can look harmless.
    """
    u, c = _reflection(op)
    Shat = _project(op.S, u, c)
    A = _project(op.D.T, u, c, order="F")  # D̂*, column-major for LAPACK
    SD = Shat @ A
    A.flat[:: A.shape[0] + 1] += 0.5  # A = ½I + D̂*, in place
    # |A| row-major, as the out-of-place ½I + D̂* is, so ‖A‖₁ rounds alike
    anorm = max(float(np.abs(A, order="C").sum(axis=0).max()), 0.5)
    with warnings.catch_warnings():  # an exactly singular A: the condition check reports it
        warnings.simplefilter("ignore", sla.LinAlgWarning)
        factor = sla.lu_factor(A, overwrite_a=True, check_finite=False)
    cond = _condition(factor[0], anorm)
    if cond > CONDITION_LIMIT:
        raise PotentialsError(
            f"half-plus-double-layer is near singular (cond ≈ {cond:.3e})"
        )
    # Both routes solve in place: route2 in the memory of Ŝ D̂*, route1 in
    # that of Ŝ, and 2Ŝ − 2Y = 2(Ŝ − Y) exactly.
    route2 = sla.lu_solve(factor, SD.T, trans=1, overwrite_b=True, check_finite=False).T
    np.subtract(Shat, route2, out=route2)
    route2 *= 2.0
    route1 = sla.lu_solve(factor, Shat.T, trans=1, overwrite_b=True, check_finite=False).T
    del factor, A  # the LU goes before the eigensolve
    denom = np.linalg.norm(route1)
    gap = float(np.linalg.norm(np.subtract(route1, route2, out=route2)) / denom)
    if gap > 1e-10:
        raise PotentialsError(f"ND evaluation routes disagree ({gap:.3e})")
    asym = float(np.linalg.norm(np.subtract(route1, route1.T, out=route2)) / denom)
    sym = np.add(route1, route1.T, out=route2)
    sym *= 0.5
    eigs = np.linalg.eigvalsh(sym)[::-1] / op.scale
    return NDResult(
        matrix=sym,
        eigenvalues=eigs,
        condition=cond,
        route_gap=gap,
        asymmetry=asym,
    )
