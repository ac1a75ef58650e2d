"""Boundary-integral route to the Neumann-to-Dirichlet map on polygons.

Straight panels with piecewise-constant densities and midpoint collocation.
All matrices are stored in the *orthonormalized* indicator basis
e_i = χ_i/√ℓ_i, in which the panel-length-weighted L² inner product becomes
the plain dot product: the single layer is then genuinely symmetric and the
adjoint of the double layer is the plain transpose.  ``NystromOperator.raw``
converts back to collocation values when needed.

Kernel conventions: the fundamental solution is −(1/2π)·log|x−y| and the
double layer kernel is ⟨x−y, n(y)⟩ / (2π|x−y|²), whose boundary integral
against the constant density equals −1/2 at every smooth boundary point
(Gauss identity).  Panel integrals of both kernels are evaluated in closed
form, so that identity holds to roundoff at every resolution.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla
from numpy.polynomial.legendre import leggauss

from .geometry import PolygonDomain

__all__ = [
    "PotentialsError",
    "PanelSet",
    "NystromOperator",
    "build_layer_operators",
    "jump_relation_error",
    "NDResult",
    "nd_operator",
    "CompositionProfile",
    "ProbeResult",
    "composition_probe",
    "ds_vs_s_singulars",
    "operator_to_text",
]

PANEL_BUDGET = 6000
CONDITION_LIMIT = 1e12
CORNER_TURN_THRESHOLD = 0.1  # radians of exterior turn that make a vertex a corner


class PotentialsError(RuntimeError):
    """Panel budget, conditioning, or resolution contract violated."""


# ---------------------------------------------------------------------------
# panel geometry


@dataclass(frozen=True)
class PanelSet:
    """Straight-panel subdivision of a polygon boundary.

    ``corner_distance[i]`` is the distance of panel i's midpoint to the
    nearest vertex whose exterior turning angle exceeds the corner threshold
    (inf when the polygon has no such vertex, e.g. fine regular n-gons).
    """

    start: np.ndarray
    end: np.ndarray
    mid: np.ndarray
    length: np.ndarray
    tangent: np.ndarray
    normal: np.ndarray
    parent: np.ndarray
    corner_distance: np.ndarray

    def __len__(self) -> int:
        return len(self.length)


def _corner_vertices(domain: PolygonDomain) -> np.ndarray:
    v = domain.vertices
    n = len(v)
    out = []
    for i in range(n):
        e0 = v[i] - v[(i - 1) % n]
        e1 = v[(i + 1) % n] - v[i]
        turn = abs(
            math.atan2(e0[0] * e1[1] - e0[1] * e1[0], float(e0 @ e1))
        )
        if turn > CORNER_TURN_THRESHOLD:
            out.append(v[i])
    return np.array(out) if out else np.empty((0, 2))


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
    starts, ends, parents, nrm = [], [], [], []
    for i in range(nseg):
        pts = pa[i][None, :] + t[:, None] * (pb[i] - pa[i])[None, :]
        starts.append(pts[:-1])
        ends.append(pts[1:])
        parents.append(np.full(panels_per_edge, i))
        nrm.append(np.tile(normals[i], (panels_per_edge, 1)))
    start = np.vstack(starts)
    end = np.vstack(ends)
    mid = 0.5 * (start + end)
    vec = end - start
    length = np.hypot(vec[:, 0], vec[:, 1])
    tangent = vec / length[:, None]
    corners = _corner_vertices(domain)
    if len(corners):
        d = np.sqrt(((mid[:, None, :] - corners[None, :, :]) ** 2).sum(axis=2))
        cdist = d.min(axis=1)
    else:
        cdist = np.full(len(length), np.inf)
    return PanelSet(
        start=start,
        end=end,
        mid=mid,
        length=length,
        tangent=tangent,
        normal=np.vstack(nrm),
        parent=np.concatenate(parents),
        corner_distance=cdist,
    )


# ---------------------------------------------------------------------------
# kernel fills

_GAUSS_X, _GAUSS_W = leggauss(4)


def _fill(mid, tangent, normal, length):
    """Galerkin single layer (outer Gauss × exact inner) and collocated
    double layer, both over straight panels."""
    n = mid.shape[0]
    S = np.zeros((n, n))
    D = np.zeros((n, n))
    a = 0.5 * length
    # double layer: midpoints against all panels at once
    dx = mid[:, None, 0] - mid[None, :, 0]
    dy = mid[:, None, 1] - mid[None, :, 1]
    u = dx * tangent[None, :, 0] + dy * tangent[None, :, 1]
    v = dx * normal[None, :, 0] + dy * normal[None, :, 1]
    with np.errstate(divide="ignore", invalid="ignore"):
        dmat = (np.arctan((a[None, :] - u) / v) + np.arctan((a[None, :] + u) / v)) / (
            2.0 * math.pi
        )
    dmat[v == 0.0] = 0.0
    np.fill_diagonal(dmat, 0.0)
    D[:] = dmat

    def primitive(w, vv):
        r2 = w * w + vv * vv
        with np.errstate(divide="ignore", invalid="ignore"):
            out = w * np.log(r2) - 2.0 * w + 2.0 * vv * np.arctan(w / vv)
            flat = w * np.log(w * w) - 2.0 * w
        out = np.where(vv == 0.0, flat, out)
        return np.where(r2 == 0.0, 0.0, out)

    block = max(1, int(2**22 // max(n, 1)))
    for lo in range(0, n, block):
        hi = min(n, lo + block)
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
    """Single/double layer pair on a panelized polygon.

    ``scale`` is the factor the original domain was multiplied by before the
    build (1.0 when rescaling was disabled); eigenvalue-like outputs must be
    divided by it to refer to the original geometry.
    """

    panels: PanelSet
    S: np.ndarray
    D: np.ndarray
    Dstar: np.ndarray
    scale: float
    domain: PolygonDomain

    @property
    def n(self) -> int:
        return len(self.panels)

    @property
    def sqrt_length(self) -> np.ndarray:
        return np.sqrt(self.panels.length)

    def raw(self, name: str) -> np.ndarray:
        """Matrix acting on plain collocation values instead of the
        orthonormal basis."""
        s = self.sqrt_length
        mat = {"S": self.S, "D": self.D, "Dstar": self.Dstar}[name]
        return (mat / s[:, None]) * s[None, :]


def build_layer_operators(
    domain: PolygonDomain,
    panels_per_edge: int,
    *,
    rescale_diameter: float | None = 0.8,
) -> NystromOperator:
    """Panelize the boundary and fill the layer matrices.

    By default the domain is first scaled to diameter ``rescale_diameter``
    (< 1), which keeps the single layer positive on mean-zero densities by
    the logarithmic capacity condition; pass ``None`` to build on the
    original geometry.
    """
    scale = 1.0
    dom = domain
    if rescale_diameter is not None:
        if not (0 < rescale_diameter < 1):
            raise PotentialsError("rescale diameter must sit in (0, 1)")
        scale = rescale_diameter / domain.diameter
        dom = domain.scaled(scale)
    panels = _build_panels(dom, panels_per_edge)
    Sg, Draw = _fill(panels.mid, panels.tangent, panels.normal, panels.length)
    s = np.sqrt(panels.length)
    S = Sg / (s[:, None] * s[None, :])
    S = 0.5 * (S + S.T)
    D = (Draw * s[:, None]) / s[None, :]
    return NystromOperator(
        panels=panels, S=S, D=D, Dstar=D.T.copy(), scale=scale, domain=dom
    )


# ---------------------------------------------------------------------------
# Gauss identity


def jump_relation_error(op: NystromOperator, n_bins: int = 6) -> dict:
    """Residual of the discrete Gauss identity: the double layer applied to
    the constant density must equal −1/2 at every collocation midpoint.

    Returns the overall max plus the max within bins of distance to the
    nearest corner (bins empty of panels are dropped).  With closed-form
    panel integrals the residual is pure roundoff at any resolution.
    """
    raw = op.raw("D")
    res = np.abs(raw.sum(axis=1) + 0.5)
    cd = op.panels.corner_distance
    binned = []
    if np.isfinite(cd).any():
        edges = np.quantile(cd, np.linspace(0, 1, n_bins + 1))
        for k in range(n_bins):
            mask = (cd >= edges[k]) & (
                cd <= edges[k + 1] if k == n_bins - 1 else cd < edges[k + 1]
            )
            if mask.any():
                binned.append(
                    {
                        "corner_distance": (float(edges[k]), float(edges[k + 1])),
                        "max_error": float(res[mask].max()),
                        "count": int(mask.sum()),
                    }
                )
    return {"max_error": float(res.max()), "binned": binned}


# ---------------------------------------------------------------------------
# Neumann-to-Dirichlet map


def _mean_zero_basis(op: NystromOperator) -> np.ndarray:
    """Orthonormal basis (columns) of the complement of constants.

    In the orthonormal panel basis the constant function has coefficients
    √ℓ_i, so mean-zero (with the panel-length-weighted inner product) is
    plain orthogonality to that vector; the basis comes from a Householder
    reflection and is deterministic.
    """
    w = op.sqrt_length.copy()
    w /= np.linalg.norm(w)
    e = np.zeros_like(w)
    e[0] = 1.0
    u = w - e
    H = np.eye(len(w)) - 2.0 * np.outer(u, u) / (u @ u)
    return H[:, 1:]


@dataclass
class NDResult:
    """Discrete Neumann-to-Dirichlet map on mean-zero densities.

    ``matrix`` is the symmetrized primary route expressed in the mean-zero
    basis ``q``; ``eigenvalues`` are descending and already rescaled to the
    original (unscaled) geometry.  ``route_gap`` is the relative difference
    between the direct solve and the split form, which agree by an exact
    algebraic identity; ``asymmetry`` is the relative skew part of the
    primary route, a pure discretization error.
    """

    matrix: np.ndarray
    q: np.ndarray
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

    One LU factorization of A = ½I + D̂* serves both routes (each solves
    Aᵀ Yᵀ = Xᵀ) and the condition estimate, which is LAPACK's 1-norm
    estimate from that factor with ‖A‖₁ floored at ½.  The floor measures
    distance to singularity against the ½I part of the operator: a D̂* that
    cancels it leaves A at roundoff size, whose scale-invariant condition
    number can look harmless.
    """
    Q = _mean_zero_basis(op)
    Shat = Q.T @ op.S @ Q
    Dhat = Q.T @ op.Dstar @ Q
    A = 0.5 * np.eye(Dhat.shape[0]) + Dhat
    anorm = max(float(np.abs(A).sum(axis=0).max()), 0.5)
    factor = sla.lu_factor(A, check_finite=False)
    gecon = sla.get_lapack_funcs("gecon", (A,))
    rcond, _ = gecon(factor[0], anorm, norm="1")
    cond = 1.0 / rcond if rcond > 0 else math.inf
    if cond > CONDITION_LIMIT:
        raise PotentialsError(
            f"half-plus-double-layer is near singular (cond ≈ {cond:.3e})"
        )
    route1 = sla.lu_solve(factor, Shat.T, trans=1, check_finite=False).T
    route2 = 2.0 * Shat - 2.0 * sla.lu_solve(
        factor, (Shat @ Dhat).T, trans=1, check_finite=False
    ).T
    denom = np.linalg.norm(route1)
    gap = float(np.linalg.norm(route1 - route2) / denom)
    if gap > 1e-10:
        raise PotentialsError(f"ND evaluation routes disagree ({gap:.3e})")
    asym = float(np.linalg.norm(route1 - route1.T) / denom)
    sym = 0.5 * (route1 + route1.T)
    eigs = np.linalg.eigvalsh(sym)[::-1] / op.scale
    return NDResult(
        matrix=sym,
        q=Q,
        eigenvalues=eigs,
        condition=cond,
        route_gap=gap,
        asymmetry=asym,
    )


# ---------------------------------------------------------------------------
# composition probe


@dataclass
class CompositionProfile:
    """Log-binned magnitude profile of a composed kernel against pair
    separation."""

    r: np.ndarray
    magnitude: np.ndarray
    count: np.ndarray
    label: str

    def to_csv(self) -> str:
        out = io.StringIO()
        out.write("r,normalized_magnitude,bin_count\n")
        for r, m, c in zip(self.r, self.magnitude, self.count):
            out.write(f"{float(r)!r},{float(m)!r},{int(c)}\n")
        return out.getvalue()


@dataclass
class ProbeResult:
    smooth: CompositionProfile
    corner: CompositionProfile | None
    metadata: dict = field(default_factory=dict)


def composition_probe(
    op: NystromOperator,
    pair_budget: int = 200_000,
    *,
    decades: float = 3.0,
    n_bins: int = 24,
    seed: int = 0,
) -> ProbeResult:
    """Size of the S·D kernel at separation r, normalized by the single-layer
    kernel magnitude |log r|/(2π).

    The panel resolution must span the requested number of decades of r.
    Pairs whose panels both sit within 10% of the domain diameter of one
    common corner are profiled separately (label "corner"); everything else
    is "smooth".  The log-kernel normalization is a planar adaptation (power
    normalizations degenerate in 2D) and is recorded as exploratory in the
    metadata.
    """
    n = op.n
    rng = np.random.default_rng(seed)
    i = rng.integers(0, n, size=pair_budget)
    j = rng.integers(0, n, size=pair_budget)
    keep = i != j
    i, j = i[keep], j[keep]
    mid = op.panels.mid
    r = np.hypot(mid[i, 0] - mid[j, 0], mid[i, 1] - mid[j, 1])
    span = math.log10(r.max() / r.min())
    if span < decades:
        raise PotentialsError(
            f"panel resolution spans {span:.2f} decades of separation, "
            f"need {decades}"
        )
    rows = np.unique(i)
    Trows = op.S[rows] @ op.D
    rowpos = np.searchsorted(rows, i)
    s = op.sqrt_length
    Tvals = Trows[rowpos, j] / (s[i] * s[j])
    norm = np.abs(np.log(r)) / (2.0 * math.pi)
    mag = np.abs(Tvals) / norm

    diam = op.domain.diameter
    cd = op.panels.corner_distance
    near = 0.1 * diam
    corner_pair = (cd[i] < near) & (cd[j] < near) & (r < 2 * near)

    edges = np.geomspace(r.min(), r.max() * (1 + 1e-12), n_bins + 1)

    def profile(mask, label):
        rr, mm = r[mask], mag[mask]
        which = np.clip(np.searchsorted(edges, rr, side="right") - 1, 0, n_bins - 1)
        counts = np.bincount(which, minlength=n_bins)
        sums = np.bincount(which, weights=mm, minlength=n_bins)
        full = counts > 0
        centers = np.sqrt(edges[:-1] * edges[1:])
        with np.errstate(invalid="ignore"):
            means = sums[full] / counts[full]
        return CompositionProfile(
            r=centers[full], magnitude=means, count=counts[full], label=label
        )

    smooth = profile(~corner_pair, "smooth")
    corner = profile(corner_pair, "corner") if corner_pair.any() else None
    meta = {
        "normalization": "log-kernel (planar adaptation, exploratory)",
        "decades_spanned": span,
        "pairs_used": int(len(r)),
        "corner_radius": float(near),
        "seed": seed,
    }
    return ProbeResult(smooth=smooth, corner=corner, metadata=meta)


def ds_vs_s_singulars(op: NystromOperator, k: int) -> dict:
    """Top-k singular values of D·S and of S (panel-weighted inner product),
    plus their ratio sequence."""
    if k > op.n:
        raise PotentialsError(f"requested {k} singular values of a {op.n} matrix")
    s_ds = np.linalg.svd(op.D @ op.S, compute_uv=False)[:k]
    s_s = np.linalg.svd(op.S, compute_uv=False)[:k]
    return {"ds": s_ds, "s": s_s, "ratio": s_ds / s_s}


# ---------------------------------------------------------------------------
# export


def operator_to_text(op: NystromOperator, name: str) -> str:
    """Dense matrix as plain text: header, shape, then one row per line."""
    mat = {"S": op.S, "D": op.D, "Dstar": op.Dstar}[name]
    out = io.StringIO()
    out.write(f"steklovlab-dense 1 {name}\n")
    out.write(f"{mat.shape[0]} {mat.shape[1]}\n")
    for row in mat:
        out.write(" ".join(f"{x:.17g}" for x in row))
        out.write("\n")
    return out.getvalue()
