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
form, so that identity holds to roundoff at every resolution: each row
point evaluates the primitives once per boundary node, and a panel's
integral is the difference across its two end nodes.

The layer fill spreads its row blocks over one thread per available CPU,
capped so that the blocks' temporaries fit in one n × n matrix; numpy's
ufuncs release the GIL.  Transpose sums (the symmetrized S, the skew and
symmetric parts of the ND map) run over pairs of cache-sized square tiles
and hold no n × n temporary.  The ND map runs in two n × n buffers, and its
dense kernels (matrix-vector products, the thin matrix-matrix products of
its four-column route check, dot products, the 1-norm, the LU factorization
and solves, the condition estimate and the eigenvalues) all come from scipy,
so that one OpenBLAS thread pool serves the stage: numpy and scipy each
bundle an OpenBLAS with its own pool.
"""

from __future__ import annotations

import math
import numbers
import os
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
from numpy.polynomial.legendre import leggauss
from scipy.linalg import blas, lapack

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
ROUTE_GAP_TOL = 1e-10  # relative gap between the two ND evaluation routes
# Rows × panels per block of the layer fill.  Each of a fill worker's three
# (rows, 4, nodes) scratch arrays holds about 4·FILL_BLOCK doubles, 512 KiB,
# so a block's working set stays in a core's 2 MiB L2 cache; at 2**18 each
# held 8 MiB and every block streamed from memory.  Fill time summed over the
# four bem-nd inputs, in s, min / median of 6 interleaved rounds on a 2-vCPU
# Xeon, with the blocks on up to two workers (below 2**12 the blocks are a
# row or two, and the per-block overhead dominates; the worker cap leaves the
# 768- and 960-panel inputs one worker from 2**15 up, and every input one
# from 2**17):
#   2**11  0.80/0.86   2**12  0.47/0.49   2**13  0.31/0.35   2**14  0.28/0.29
#   2**15  0.34/0.37   2**16  0.37/0.40   2**17  0.51/0.56   2**18  0.57/0.62
# Whole bem-nd passes (8 alternating rounds) read 1.463 s median at 2**13 and
# 1.398 s at 2**14, where the ND stage's bands and tiles are this size too.
FILL_BLOCK = 2**14


class PotentialsError(RuntimeError):
    """Panel budget, conditioning, or resolution contract violated."""


# ---------------------------------------------------------------------------
# panel geometry


@dataclass(frozen=True)
class PanelSet:
    """Straight-panel subdivision of a polygon boundary, every segment cut
    into the same number p of panels, numbered segment by segment.
    ``nodes[g]`` holds the p + 1 panel ends along segment g in order."""

    mid: np.ndarray
    length: np.ndarray
    tangent: np.ndarray
    normal: np.ndarray
    nodes: np.ndarray  # (segments, p + 1, 2)

    def __len__(self) -> int:
        return len(self.length)


def _build_panels(domain: PolygonDomain, panels_per_edge: int) -> PanelSet:
    if isinstance(panels_per_edge, bool) or not isinstance(panels_per_edge, numbers.Integral):
        raise PotentialsError(
            f"panels_per_edge must be an integer, not {type(panels_per_edge).__name__}"
        )
    if panels_per_edge < 1:
        raise PotentialsError("panels_per_edge must be at least 1")
    nseg = domain.n_segments
    total = nseg * panels_per_edge
    if total > PANEL_BUDGET:
        raise PotentialsError(
            f"{total} panels exceed the budget of {PANEL_BUDGET}"
        )
    t = np.arange(panels_per_edge + 1) / panels_per_edge
    nodes = domain.segment_nodes(t)[0].reshape(nseg, panels_per_edge + 1, 2)
    start = nodes[:, :-1].reshape(-1, 2)
    end = nodes[:, 1:].reshape(-1, 2)
    mid = 0.5 * (start + end)
    vec = end - start
    length = np.hypot(vec[:, 0], vec[:, 1])
    tangent = vec / length[:, None]
    normal = np.repeat(domain.segment_normals(), panels_per_edge, axis=0)
    return PanelSet(mid=mid, length=length, tangent=tangent, normal=normal, nodes=nodes)


# ---------------------------------------------------------------------------
# kernel fills

_GAUSS_X, _GAUSS_W = leggauss(4)


def _available_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# Doubles per (row, panel) entry that one block's temporaries in ``_fill`` hold
# at their peak: 16.6 by tracemalloc on a one-block fill of 608 panels.
_BLOCK_TEMPS = 17


def _primitive(w, v, vv, twov, out, tmp):
    """Inner-integral primitive w·log(w² + v²) − 2w + 2v·arctan(w/v), 0 where
    w² + v² = 0, written into ``out``; v² and 2v come at v's shape, and
    ``tmp`` is scratch of w's shape.  No branch for collinear pairs: at v = 0
    the last term is a signed zero, and adding it leaves w·log(w²) − 2w
    bitwise as it is."""
    r2 = np.multiply(w, w, out=tmp)
    r2 += vv
    zero = r2 == 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        np.log(r2, out=out)
        out *= w
        out -= np.multiply(w, 2.0, out=tmp)
        term = np.arctan(np.divide(w, v, out=tmp), out=tmp)
        term *= twov
        out += term
    out[zero] = 0.0
    return out


def _add_transpose(M: np.ndarray, out: np.ndarray, sign: float = 1.0) -> None:
    """out = M + sign·Mᵀ for sign ±1, over pairs of square tiles of about
    ``FILL_BLOCK`` entries, so both reads stay in cache and no n × n
    temporary is made; ``out`` may be M.  Entry (j, i) is written as
    sign·entry (i, j), which is fl(M_ji + sign·M_ij) exactly: addition
    commutes and negation is exact, so every bit is that of the untiled
    sum."""
    n = M.shape[0]
    t = max(1, math.isqrt(FILL_BLOCK))
    for lo in range(0, n, t):
        rows = slice(lo, lo + t)
        for lo2 in range(lo, n, t):
            cols = slice(lo2, lo2 + t)
            tile = M[rows, cols] + sign * M[cols, rows].T
            out[rows, cols] = tile
            out[cols, rows] = sign * tile.T


def _along(p, q, e):
    """(p − q)·e over a last axis of two coordinates, the other axes
    broadcast."""
    return (p[..., 0] - q[..., 0]) * e[..., 0] + (p[..., 1] - q[..., 1]) * e[..., 1]


def _fill(panels: PanelSet) -> tuple[np.ndarray, np.ndarray]:
    """Galerkin single layer (outer Gauss × exact inner) and collocated
    double layer over straight panels, in the orthonormal basis.

    Each row point x (a midpoint for D, a Gauss point for S) evaluates the
    closed-form primitives once per boundary node, in the coordinates
    w = (node − x)·t and v = (x − node₀)·n of the node's segment, and every
    panel's integral is the difference of its two ends along the segment:
    D_ij = (θ_end − θ_start)/2π with θ = arctan(w/v), and the inner integral
    of S is F_end − F_start with F = ``_primitive``.  v is taken once per
    segment, so all its panels see the same side of x, and it is exactly 0
    on the row's own segment, where D vanishes (D_ii = 0 included).

    Both are filled in one pass over blocks of ``FILL_BLOCK // n`` rows, each
    written already in the orthonormal basis: S divided by s_i·s_j and D
    multiplied by s_i/s_j, with s = √ℓ.  A block's node-axis arithmetic runs
    in three scratch arrays of about 4·FILL_BLOCK Gauss-point values each,
    which its worker reuses from block to block, so a block runs in L2 cache
    (the sweep is at ``FILL_BLOCK``).  The blocks are dealt round-robin to
    workers, one per available CPU but no more than there are blocks, and
    no more than keep their temporaries (``_BLOCK_TEMPS`` doubles per block
    entry each) within one n × n matrix; S is then symmetrized in place over
    cache-sized tiles, so the build holds at most three n × n matrices on
    any host.  The calling thread is the first worker, so a one-worker fill
    starts no thread; numpy's ufuncs release the GIL, so the workers run in
    parallel.  Every entry is the same elementwise arithmetic in any block
    size and on any worker, so S and D depend on neither."""
    mid, tangent, length, nodes = panels.mid, panels.tangent, panels.length, panels.nodes
    n = len(panels)
    p = nodes.shape[1] - 1
    chord = nodes[:, -1] - nodes[:, 0]
    t_seg = chord / np.hypot(chord[:, 0], chord[:, 1])[:, None]
    n_seg = panels.normal[::p]
    # each node's coordinates and its segment's tangent, one contiguous
    # (segments, p + 1) array per component, so that w runs in one inner
    # loop over all nodes per row point
    grid = nodes.shape[:2]  # (segments, p + 1)
    node_xy = [np.ascontiguousarray(nodes[..., k]) for k in (0, 1)]
    tan_xy = [np.broadcast_to(t_seg[:, None, k], grid).copy() for k in (0, 1)]

    def along_nodes(x, out, tmp):
        """w = (node − x)·t for points x of shape (..., 2), written into
        ``out`` of shape (..., segments, p + 1); ``tmp`` is scratch of that
        shape."""
        x = x[..., None, None, :]
        w = np.subtract(node_xy[0], x[..., 0], out=out)
        w *= tan_xy[0]
        wy = np.subtract(node_xy[1], x[..., 1], out=tmp)
        wy *= tan_xy[1]
        w += wy
        return w

    own = np.arange(n) // p  # each row's segment
    S = np.empty((n, n))
    D = np.empty((n, n))
    a = 0.5 * length
    s = np.sqrt(length)
    q = len(_GAUSS_W)
    per_row = q * math.prod(grid)  # Gauss-point values per row and node

    def fill_rows(lo, hi, scratch):
        b = hi - lo
        W, F, T = (buf[: b * per_row].reshape(b, q, *grid) for buf in scratch)
        # double layer: the block's midpoints against every node
        x = mid[lo:hi, None, :]  # (b, 1, 2)
        v = _along(x, nodes[:, 0], n_seg)  # (b, segments)
        v[np.arange(b), own[lo:hi]] = 0.0
        w = along_nodes(mid[lo:hi], W[:, 0], T[:, 0])  # (b, segments, p + 1)
        with np.errstate(divide="ignore", invalid="ignore"):
            dmat = np.diff(np.arctan(w / v[:, :, None]), axis=2) / (2.0 * math.pi)
        dmat[v == 0.0] = 0.0  # the own segment and any collinear one
        np.multiply(dmat.reshape(b, n), s[lo:hi, None], out=D[lo:hi])
        D[lo:hi] /= s[None, :]
        # single layer: four Gauss points on each of the block's panels
        xi = (
            mid[lo:hi, None, :]
            + _GAUSS_X[None, :, None] * (a[lo:hi, None, None] * tangent[lo:hi, None, :])
        )[:, :, None, :]  # (b, q, 1, 2)
        vq = _along(xi, nodes[:, 0], n_seg)  # (b, q, segments)
        vq[np.arange(b), :, own[lo:hi]] = 0.0
        vq = vq[..., None]
        wq = along_nodes(xi[:, :, 0], W, T)  # (b, q, segments, p + 1)
        _primitive(wq, vq, vq * vq, 2.0 * vq, F, T)
        inner = scratch[2][: b * q * n].reshape(b, q, n)  # T's memory, T now spent
        np.subtract(F[..., 1:], F[..., :-1], out=inner.reshape(b, q, -1, p))
        acc = np.einsum("q,bqj->bj", _GAUSS_W, inner) * a[lo:hi, None]
        np.divide(-acc / (4.0 * math.pi), s[lo:hi, None] * s[None, :], out=S[lo:hi])

    block = max(1, FILL_BLOCK // max(n, 1))
    starts = range(0, n, block)
    workers = min(_available_cpus(), len(starts), max(1, n // (_BLOCK_TEMPS * block)))

    # a share done before the last submit would free its thread for the
    # next, and the fill would run on fewer threads than it has workers
    submitted = threading.Event()

    def work(k):
        submitted.wait()
        # Each worker fills its blocks in three (block, q, segments, p + 1)
        # scratch arrays.  Allocated afresh per block, such arrays made the
        # allocator hand their pages back and fault them in again, most of all
        # on the worker threads' heaps: the fill of the four bem-nd inputs
        # read 0.45-0.57 s on two workers, against 0.32-0.33 s reusing them
        # (blocks of 2**13 entries).
        scratch = [np.empty(block * per_row) for _ in range(3)]
        for lo in starts[k::workers]:
            fill_rows(lo, min(n, lo + block), scratch)

    with ThreadPoolExecutor(max(1, workers - 1)) as pool:
        try:
            futures = [pool.submit(work, k) for k in range(1, workers)]
        finally:
            submitted.set()
        work(0)
        for future in futures:
            future.result()
    diag = -(length * length) * (np.log(length) - 1.5) / (2.0 * math.pi)
    np.fill_diagonal(S, diag / (s * s))
    _add_transpose(S, S)
    S *= 0.5
    return S, D


# ---------------------------------------------------------------------------
# operator container


@dataclass
class NystromOperator:
    """Single/double layer pair on a panelized polygon of the given geometry,
    in the orthonormal basis (the adjoint double layer is ``D.T``)."""

    panels: PanelSet
    S: np.ndarray
    D: np.ndarray

    @property
    def n(self) -> int:
        return len(self.panels)

    @property
    def sqrt_length(self) -> np.ndarray:
        return np.sqrt(self.panels.length)


def build_layer_operators(domain: PolygonDomain, panels_per_edge: int) -> NystromOperator:
    """Panelize the boundary of ``domain`` and fill the layer matrices on it.

    The build runs on the given geometry at any scale: only the projected
    single layer Ŝ enters the ND map, and on mean-zero densities the
    logarithmic single layer is positive definite whatever the domain's
    logarithmic capacity (McLean, *Strongly Elliptic Systems and Boundary
    Integral Equations*, ch. 8).
    """
    panels = _build_panels(domain, panels_per_edge)
    S, D = _fill(panels)
    return NystromOperator(panels=panels, S=S, D=D)


# ---------------------------------------------------------------------------
# Gauss identity


def jump_relation_error(op: NystromOperator) -> dict:
    """Residual of the discrete Gauss identity: the double layer applied to
    the constant density must equal −1/2 at every collocation midpoint.

    Returns ``{"max_error": …}``, the largest residual over the midpoints.
    With closed-form panel integrals it is pure roundoff at any resolution.
    The rows are taken in blocks of ``FILL_BLOCK`` entries, so the check
    holds no n × n temporary; each row is summed whole, so the residuals do
    not depend on the block size.
    """
    s = op.sqrt_length
    n = op.n
    residual = np.empty(n)
    block = max(1, FILL_BLOCK // max(n, 1))
    for lo in range(0, n, block):
        hi = min(n, lo + block)
        raw = (op.D[lo:hi] / s[lo:hi, None]) * s[None, :]  # acts on collocation values
        np.abs(raw.sum(axis=1) + 0.5, out=residual[lo:hi])
    return {"max_error": float(residual.max())}


# ---------------------------------------------------------------------------
# Neumann-to-Dirichlet map


def _frobenius(M: np.ndarray) -> float:
    """‖M‖_F as √(x·x) over M's memory, as ``np.linalg.norm`` computes it.
    BLAS ``ddot``, not ``dnrm2``, whose scaled sum rounds differently."""
    x = M.ravel(order="K")
    return math.sqrt(blas.ddot(x, x))


def _reflection(op: NystromOperator) -> tuple[np.ndarray, float]:
    """u and c of the Householder reflection H = I − c·uuᵀ that maps
    w = √ℓ/‖√ℓ‖ onto e₀ (u = w − e₀, c = 2/uᵀu).

    In the orthonormal panel basis the constant function has coefficients
    √ℓ_i, so mean-zero (with the panel-length-weighted inner product) is
    plain orthogonality to w, and the columns H[:, 1:] are an orthonormal
    basis of the mean-zero densities.
    """
    u = op.sqrt_length / _frobenius(op.sqrt_length)
    u[0] -= 1.0
    return u, 2.0 / blas.ddot(u, u)


def _project(M: np.ndarray, u: np.ndarray, c: float, order: str = "C") -> np.ndarray:
    """(H M H)[1:, 1:] for H = I − c·uuᵀ in O(n²): one matrix-vector
    product per side and two rank-one updates.  ``order`` is the memory
    layout of the result; it does not change its values.  The updates run
    over bands of ``FILL_BLOCK`` entries that are contiguous in that layout
    (rows for "C", columns for "F"), so the result is the only n × n
    allocation."""
    # BLAS gemv on whichever of M and Mᵀ is column-major, so M is not copied
    F, flip = (M, 0) if M.flags.f_contiguous else (M.T, 1)
    r = blas.dgemv(1.0, F, u, trans=1 - flip)  # Mᵀu: H M = M − c·u rᵀ
    p = blas.dgemv(1.0, F, u, trans=flip) - c * blas.ddot(r, u) * u  # (H M) u
    cu, cp, r, u, M = c * u[1:], c * p[1:], r[1:], u[1:], M[1:, 1:]  # trailing parts
    m = len(u)
    out = np.empty((m, m), order=order)
    block = max(1, FILL_BLOCK // max(m, 1))
    for lo in range(0, m, block):
        band = slice(lo, min(m, lo + block))
        i, j = (band, slice(None)) if order == "C" else (slice(None), band)
        part = np.subtract(M[i, j], np.outer(cu[i], r[j]), out=out[i, j])
        part -= np.outer(cp[i], u[j])
    return out


def _condition(lu: np.ndarray, anorm: float) -> float:
    """1/rcond from LAPACK's 1-norm estimate on an LU factor, to four
    significant digits.  OpenBLAS rounds the estimate's last bits with the
    alignment of the work array that scipy's wrapper allocates, so the raw
    value can change from call to call; the estimate is good to a factor of
    about 3 (Higham, ACM TOMS 14, 1988), so no digit past the fourth means
    anything."""
    rcond, _ = lapack.dgecon(lu, anorm, norm="1")
    return float(f"{1.0 / rcond:.4g}") if rcond > 0 else math.inf


@dataclass
class NDResult:
    """Discrete Neumann-to-Dirichlet map on mean-zero densities.

    ``matrix`` is the symmetrized primary route in the basis H[:, 1:], the
    last n − 1 columns of the Householder reflection H that maps √ℓ/‖√ℓ‖
    onto e₀ (``_reflection``); ``eigenvalues`` are descending and of the
    given geometry.  ``route_gap`` is ‖P₁ − P₂‖_F / ‖P₁‖_F on the probe
    Z = cos(outer(1..n−1, 1..4)), where P₁ is the primary route applied to Z
    and P₂ the split form applied to Z; the two agree by an exact algebraic
    identity.  ``asymmetry`` is the relative skew part of the primary route,
    a pure discretization error.
    """

    matrix: np.ndarray
    eigenvalues: np.ndarray
    condition: float
    route_gap: float
    asymmetry: float


def nd_operator(op: NystromOperator) -> NDResult:
    """Neumann-to-Dirichlet operator ND = S(½ + D*)⁻¹ projected to
    mean-zero, with the split form 2S − 2SD*(½ + D*)⁻¹ as cross-check on a
    four-column probe.

    The single-layer ansatz u = S[σ] turns Neumann data g into the
    density equation (½I + D*)σ = g, so the trace map g ↦ u|∂Ω is
    S(½ + D*)⁻¹ with the *adjoint* double layer.  On a circle D and D*
    both vanish on mean-zero densities, so only corner domains separate
    the two; using D here converges to a wrong limit.

    S and D* are projected to mean-zero as Ŝ = (H S H)[1:, 1:] and
    D̂* = (H Dᵀ H)[1:, 1:], with the reflection H = I − c·uuᵀ applied to
    rows and columns in O(n²) (no basis matrix is formed).  One LU
    factorization of A = ½I + D̂*, formed and factored in D̂*'s memory,
    serves the primary route ŜA⁻¹ (solved as Aᵀ Yᵀ = Ŝᵀ in Ŝ's memory), the
    probe check and the condition estimate, which is LAPACK's 1-norm
    estimate from that factor with ‖A‖₁ floored at ½.  The floor measures
    distance to singularity against the ½I part of the operator: a D̂* that
    cancels it leaves A at roundoff size, whose scale-invariant condition
    number can look harmless.

    The split form is checked on the probe Z alone: D̂* and A commute, so
    2Ŝ(I − D̂*A⁻¹)Z = 2Ŝ(Z − A⁻¹W) with W = D̂*Z, taken before A is formed.
    On the 256-panel square, a factor off by a relative 1e-9 in its middle
    diagonal entry moves the probe gap past ``ROUTE_GAP_TOL``.  The stage holds two n × n buffers, Ŝ's and
    A's, and the n × 4 probe products: the skew part and the symmetrized
    matrix are formed in the factor's memory once the solve is done, over
    pairs of square tiles so that the transposed reads stay in cache, and
    the eigensolver overwrites a copy of the matrix in Ŝ's.

    Every dense kernel is scipy's, so one OpenBLAS thread pool serves the
    stage: ``dgemv`` and ``ddot`` in the projection, thin ``dgemm``s for
    the probe products (each column-major operand as it stands, so f2py
    copies no n × n matrix), ``dlange`` for ‖A‖₁,
    ``lu_factor``/``lu_solve``, ``dgecon`` (reported to four significant
    digits), the Frobenius norms as √(x·x) by ``ddot``, and the eigenvalues
    from LAPACK's ``dsyevd`` (scipy's ``evd`` driver).  Each is the routine
    that numpy's ``@``, ``norm`` and ``eigvalsh`` call on the same layouts,
    so the results equal numpy's bit for bit.
    """
    u, c = _reflection(op)
    Shat = _project(op.S, u, c)
    A = _project(op.D.T, u, c, order="F")  # D̂*, column-major for LAPACK
    m = A.shape[0]
    Z = np.cos(np.outer(np.arange(1.0, m + 1), np.arange(1.0, 5)), order="F")
    W = blas.dgemm(1.0, A, Z)  # D̂*Z
    A.flat[:: m + 1] += 0.5  # A = ½I + D̂*, in place
    anorm = max(float(lapack.dlange("1", A)), 0.5)
    with warnings.catch_warnings():  # an exactly singular A: the condition check reports it
        warnings.simplefilter("ignore", sla.LinAlgWarning)
        factor = sla.lu_factor(A, overwrite_a=True, check_finite=False)
    cond = _condition(factor[0], anorm)
    if cond > CONDITION_LIMIT:
        raise PotentialsError(
            f"half-plus-double-layer is near singular (cond ≈ {cond:.3e})"
        )
    AinvW = sla.lu_solve(factor, W, overwrite_b=True, check_finite=False)
    P2 = blas.dgemm(2.0, Shat.T, np.subtract(Z, AinvW, out=AinvW), trans_a=1)
    route1 = sla.lu_solve(factor, Shat.T, trans=1, overwrite_b=True, check_finite=False).T
    P1 = blas.dgemm(1.0, route1.T, Z, trans_a=1)
    gap = _frobenius(np.subtract(P1, P2, out=P2)) / _frobenius(P1)
    if not gap <= ROUTE_GAP_TOL:  # a NaN gap fails too
        raise PotentialsError(f"ND evaluation routes disagree ({gap:.3e})")
    spare = factor[0].T  # the factor's memory, row-major like route1
    denom = _frobenius(route1)
    _add_transpose(route1, spare, -1.0)
    asym = _frobenius(spare) / denom
    sym = spare
    _add_transpose(route1, sym)
    sym *= 0.5
    # sym is exactly symmetric, so the transpose of its copy in route1's
    # memory is sym in column-major order, which dsyevd overwrites in place
    np.copyto(route1, sym)
    eigs = sla.eigh(
        route1.T, eigvals_only=True, driver="evd", overwrite_a=True, check_finite=False
    )[::-1]
    return NDResult(
        matrix=sym,
        eigenvalues=eigs,
        condition=cond,
        route_gap=gap,
        asymmetry=asym,
    )
