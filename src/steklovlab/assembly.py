"""P1 finite-element assembly of the energy and boundary-weight forms.

Builds sparse symmetric matrices for the quadratic forms

    energy[u]  = ∫_Ω ⟨a ∇u, ∇u⟩ + v₀ u² dx
    weight[u]  = ∫_Σ ρ (γu)² dμ

over hat functions on a triangle mesh, plus the coefficient catalog (named
SPD matrix fields, scalar potentials, boundary weights), the two composite
fields the experiments build themselves (a boundary-matched blend and a
mollification), and the pullback of coefficients under a piecewise-affine
straightening map.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .geometry import PolygonDomain, StraighteningMap, TriangleMesh, catalog_call

__all__ = [
    "AssemblyError",
    "MatrixField",
    "ScalarField",
    "BoundaryWeight",
    "CoefficientField",
    "AssembledForms",
    "constant_matrix",
    "rotated_diagonal",
    "checkerboard",
    "boundary_matched_rough",
    "mollified",
    "make_matrix_field",
    "constant_potential",
    "bump_potential",
    "make_potential",
    "constant_weight",
    "segment_weight",
    "make_weight",
    "assemble_energy",
    "assemble_energy_split",
    "assemble_boundary_weight",
    "assemble_forms",
    "pullback_coefficients",
]


class AssemblyError(RuntimeError):
    """Coefficient evaluation or form assembly failed."""


# ---------------------------------------------------------------------------
# coefficient fields


@dataclass(frozen=True)
class MatrixField:
    """SPD 2x2 matrix coefficient a(x), evaluated pointwise.

    Assembly samples every field, rough or smooth, at the same 12 points per
    element: the edge-midpoint rule on each of the element's four congruent
    subtriangles, so interfaces crossing elements stay O(h) accurate.
    ``ellipticity`` is the declared lower bound on the smallest eigenvalue,
    checked at every quadrature point during assembly.

    An isotropic field a(x) = s(x)·I (``constant``, ``checkerboard``, and a
    mollification or boundary-matched blend of isotropic fields) carries
    ``scalar``, the evaluator of s, and ``fn`` returns s(x)·I.  Assembly
    samples s alone and never builds the 2x2 matrices; their entries would be
    s·1 and s·0, so every sample and every assembled matrix keeps the bits of
    the matrix path.  Other fields leave ``scalar`` as None.
    """

    name: str
    fn: object
    ellipticity: float = 1e-9
    scalar: object = None

    def __call__(self, points) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        out = np.asarray(self.fn(pts), dtype=float)
        if out.shape != (len(pts), 2, 2):
            raise AssemblyError(
                f"matrix field {self.name!r} returned shape {out.shape}"
            )
        return out


def _isotropic(name: str, scalar, ellipticity: float) -> MatrixField:
    """The field s(x)·I, given the evaluator of s."""
    eye = np.eye(2)
    return MatrixField(name, lambda pts: scalar(pts)[:, None, None] * eye, ellipticity, scalar)


@dataclass(frozen=True)
class ScalarField:
    """Nonnegative scalar potential v₀(x)."""

    name: str
    fn: object

    def __call__(self, points) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return np.asarray(self.fn(pts), dtype=float).reshape(len(pts))


@dataclass(frozen=True)
class BoundaryWeight:
    """Boundary weight ρ, constant along each mesh boundary edge.

    Called as ``rho(parents, p0, p1)`` (and ``fn`` likewise), it evaluates ρ on
    boundary edges given by their parent polygon-segment ids and endpoints; a
    point on the boundary, such as a quadrature node, is the zero-length edge
    ``p0 = p1``.  A NaN or infinite value is an error.
    """

    name: str
    fn: object

    def __call__(self, parents, p0, p1) -> np.ndarray:
        parents = np.asarray(parents, dtype=np.int64)
        p0 = np.atleast_2d(np.asarray(p0, dtype=float))
        p1 = np.atleast_2d(np.asarray(p1, dtype=float))
        out = np.asarray(self.fn(parents, p0, p1), dtype=float).reshape(len(parents))
        bad = ~np.isfinite(out)
        if bad.any():
            k = int(np.argmax(bad))
            raise AssemblyError(
                f"boundary weight {self.name!r} is {out[k]:g} on segment {parents[k]}"
            )
        return out


@dataclass(frozen=True)
class CoefficientField:
    """Bundle (a, v₀, ρ) defining one problem instance."""

    a: MatrixField
    v0: ScalarField
    rho: BoundaryWeight

    def with_(self, a=None, v0=None, rho=None) -> "CoefficientField":
        return CoefficientField(a or self.a, v0 or self.v0, rho or self.rho)


# -- matrix field catalog ----------------------------------------------------


def constant_matrix(value: float = 1.0) -> MatrixField:
    v = float(value)
    if not 0 < v < math.inf:
        raise AssemblyError("constant coefficient must be positive and finite")
    return _isotropic("constant", lambda pts: np.full(len(pts), v), ellipticity=v)


def rotated_diagonal(p: float, q: float, angle: float) -> MatrixField:
    """diag(p, q) conjugated by a rotation of ``angle`` radians."""
    p, q, t = float(p), float(q), float(angle)
    if not (0 < p < math.inf and 0 < q < math.inf):
        raise AssemblyError("diagonal entries must be positive and finite")
    if not math.isfinite(t):
        raise AssemblyError(f"rotated-diagonal needs a finite angle (got {t})")
    c, s = math.cos(t), math.sin(t)
    R = np.array([[c, -s], [s, c]])
    mat = R @ np.diag([p, q]) @ R.T

    def fn(pts):
        return np.broadcast_to(mat, (len(pts), 2, 2))

    return MatrixField("rotated-diagonal", fn, ellipticity=min(p, q))


def _point(entry: str, key: str, value) -> tuple[float, float]:
    """``value`` as a planar point: exactly two finite numbers."""
    if not isinstance(value, (list, tuple, np.ndarray)) or len(value) != 2:
        raise AssemblyError(f"{entry} needs {key} as two numbers (x, y) (got {value!r})")
    x, y = float(value[0]), float(value[1])
    if not (math.isfinite(x) and math.isfinite(y)):
        raise AssemblyError(f"{entry} needs a finite {key} (got {value!r})")
    return x, y


def checkerboard(
    cell: float, low: float = 1.0, high: float = 4.0, origin=(0.0, 0.0)
) -> MatrixField:
    """Isotropic two-phase field: ``low``·I and ``high``·I on alternating
    cells of the given pitch."""
    cell, low, high = float(cell), float(low), float(high)
    if not all(0 < v < math.inf for v in (cell, low, high)):
        raise AssemblyError("checkerboard needs positive, finite cell and values")
    ox, oy = _point("checkerboard", "origin", origin)

    def scalar(pts):
        try:
            # an index outside int64, an infinite one included, makes the cast invalid
            with np.errstate(over="ignore", invalid="raise"):
                ij = np.floor((pts - (ox, oy)) / cell).astype(np.int64)
        except FloatingPointError:
            raise AssemblyError(
                f"checkerboard cell = {cell!r} is too small: a cell index overflows int64"
            ) from None
        odd = (ij[:, 0] + ij[:, 1]) % 2 == 1  # a wrapped sum keeps its parity
        return np.where(odd, high, low)

    return _isotropic("checkerboard", scalar, ellipticity=min(low, high))


def _distance_to_boundary(domain: PolygonDomain, pts: np.ndarray) -> np.ndarray:
    """Distance from each point to the polygon's boundary.

    One segment at a time with a running minimum, so the work arrays hold one
    entry per point whatever the segment count."""
    p, q = domain.segment_points()
    d = q - p
    L2 = np.sum(d * d, axis=1)
    x, y = pts[:, 0], pts[:, 1]
    dist = np.full(len(pts), np.inf)
    for (px, py), (dx, dy), l2 in zip(p, d, L2):
        # projection parameter, clamped to the segment, then the closest point
        t = np.clip(((x - px) * dx + (y - py) * dy) / l2, 0.0, 1.0)
        ex, ey = x - (px + t * dx), y - (py + t * dy)
        np.minimum(dist, np.sqrt(ex * ex + ey * ey), out=dist)
    return dist


BLEND_WIDTH = 0.3  # collar width of the boundary-matched blend, in domain spans


def boundary_matched_rough(
    domain: PolygonDomain, interior: MatrixField, trace: MatrixField
) -> MatrixField:
    """Field equal to ``trace`` on the boundary, blended into ``interior``
    over a collar ``BLEND_WIDTH`` spans wide (smoothstep in boundary distance),
    so the field scales with the domain.  The blend of two isotropic fields
    is isotropic and blends their scalars."""
    w = BLEND_WIDTH * domain.span
    name = "boundary-matched-rough"
    ellipticity = min(interior.ellipticity, trace.ellipticity)

    def step(pts):
        t = np.clip(_distance_to_boundary(domain, pts) / w, 0.0, 1.0)
        return t * t * (3.0 - 2.0 * t)

    if interior.scalar is not None and trace.scalar is not None:

        def scalar(pts):
            s = step(pts)
            return (1 - s) * trace.scalar(pts) + s * interior.scalar(pts)

        return _isotropic(name, scalar, ellipticity)

    def fn(pts):
        s = step(pts)
        return (1 - s)[:, None, None] * trace(pts) + s[:, None, None] * interior(pts)

    return MatrixField(name, fn, ellipticity)


_MOLL_NODES, _MOLL_WEIGHTS = np.polynomial.legendre.leggauss(5)


def mollified(base: MatrixField, eps: float) -> MatrixField:
    """Average of ``base`` over the square [-ε, ε]² (tensor Gauss rule).

    Averaging SPD matrices is a convex combination, so ellipticity bounds
    carry over unchanged; the result is continuous in x.  The mollification
    of an isotropic field is isotropic and averages its scalar, summing the
    offsets in the same order.
    """
    eps = float(eps)
    if not 0 < eps < math.inf:
        raise AssemblyError("mollification scale must be positive and finite")
    gx, gy = np.meshgrid(_MOLL_NODES, _MOLL_NODES, indexing="ij")
    offsets = eps * np.stack([gx.ravel(), gy.ravel()], axis=1)
    wts = np.outer(_MOLL_WEIGHTS, _MOLL_WEIGHTS).ravel()
    wts = wts / wts.sum()

    if base.scalar is not None:

        def scalar(pts):
            out = np.zeros(len(pts))
            for off, w in zip(offsets, wts):
                out += w * base.scalar(pts + off)
            return out

        return _isotropic("mollified", scalar, base.ellipticity)

    def fn(pts):
        out = np.zeros((len(pts), 2, 2))
        for off, w in zip(offsets, wts):
            out += w * base(pts + off)
        return out

    return MatrixField("mollified", fn, ellipticity=base.ellipticity)


_MATRIX_FIELDS = {
    "constant": constant_matrix,
    "rotated-diagonal": rotated_diagonal,
    "checkerboard": checkerboard,
}


def make_matrix_field(name: str, **params) -> MatrixField:
    """Catalog dispatch: constant, rotated-diagonal, checkerboard."""
    return catalog_call("matrix coefficient", _MATRIX_FIELDS, AssemblyError, name, params)


# -- potential catalog ---------------------------------------------------


def constant_potential(value: float = 1.0) -> ScalarField:
    v = float(value)
    if not 0 <= v < math.inf:
        raise AssemblyError("potential must be nonnegative and finite")

    def fn(pts):
        return np.full(len(pts), v)

    return ScalarField("constant", fn)


def bump_potential(center=(0.0, 0.0), radius: float = 0.5, height: float = 1.0) -> ScalarField:
    """Compactly supported smooth bump: height·exp(1 − R²/(R² − r²)) inside
    the disk of the given radius, zero outside."""
    cx, cy = _point("bump", "center", center)
    R, hgt = float(radius), float(height)
    if not (0 < R < math.inf and 0 <= hgt < math.inf):
        raise AssemblyError("bump needs positive radius and nonnegative height, both finite")

    def fn(pts):
        r2 = (pts[:, 0] - cx) ** 2 + (pts[:, 1] - cy) ** 2
        out = np.zeros(len(pts))
        inside = r2 < R * R * (1 - 1e-12)
        out[inside] = hgt * np.exp(1.0 - R * R / (R * R - r2[inside]))
        return out

    return ScalarField("bump", fn)


_POTENTIALS = {"constant": constant_potential, "bump": bump_potential}


def make_potential(name: str, **params) -> ScalarField:
    """Catalog dispatch: constant, bump."""
    return catalog_call("potential", _POTENTIALS, AssemblyError, name, params)


# -- boundary weight catalog ----------------------------------------------


def constant_weight(value: float = 1.0) -> BoundaryWeight:
    v = float(value)

    def fn(parents, p0, p1):
        return np.full(len(parents), v)

    return BoundaryWeight("constant", fn)


def segment_weight(values) -> BoundaryWeight:
    """Piecewise-constant weight: one value per polygon segment id."""
    vals = np.atleast_1d(np.asarray(values, dtype=float))  # a config's single value

    def fn(parents, p0, p1):
        if parents.max(initial=-1) >= len(vals):
            raise AssemblyError("segment weight has no value for a parent id")
        return vals[parents]

    return BoundaryWeight("per-segment", fn)


_WEIGHTS = {"constant": constant_weight, "per-segment": segment_weight}


def make_weight(name: str, **params) -> BoundaryWeight:
    """Catalog dispatch: constant, per-segment."""
    return catalog_call("boundary weight", _WEIGHTS, AssemblyError, name, params)


# ---------------------------------------------------------------------------
# quadrature

# The order-2 edge-midpoint rule on each of the 4 congruent subtriangles
# (corner, corner, corner, middle) of the reference triangle.
_BARY_FINE = np.array(
    [
        [0.75, 0.25, 0.0], [0.5, 0.25, 0.25], [0.75, 0.0, 0.25],
        [0.25, 0.75, 0.0], [0.0, 0.75, 0.25], [0.25, 0.5, 0.25],
        [0.25, 0.25, 0.5], [0.0, 0.25, 0.75], [0.25, 0.0, 0.75],
        [0.25, 0.5, 0.25], [0.25, 0.25, 0.5], [0.5, 0.25, 0.25],
    ]
)
_W_FINE = np.full(12, 1.0 / 12.0)


# ---------------------------------------------------------------------------
# element kernel


def _element_forms(coords, a_sym, v_vals):
    """Per-element stiffness and mass blocks.

    coords: (m, 3, 2) triangle vertices; a_sym: (m, 12, 3) packed SPD samples
    (a11, a12, a22) and v_vals: (m, 12) potential samples at the points
    ``_BARY_FINE``.  Returns (m, 3, 3) stiffness and mass blocks.
    """
    d1 = coords[:, 1, :] - coords[:, 0, :]
    d2 = coords[:, 2, :] - coords[:, 0, :]
    det = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
    area = 0.5 * det
    b = np.stack(
        [
            coords[:, 1, 1] - coords[:, 2, 1],
            coords[:, 2, 1] - coords[:, 0, 1],
            coords[:, 0, 1] - coords[:, 1, 1],
        ],
        axis=1,
    )
    c = np.stack(
        [
            coords[:, 2, 0] - coords[:, 1, 0],
            coords[:, 0, 0] - coords[:, 2, 0],
            coords[:, 1, 0] - coords[:, 0, 0],
        ],
        axis=1,
    )
    abar = np.einsum("q,eqk->ek", _W_FINE, a_sym)
    a11, a12, a22 = abar[:, 0], abar[:, 1], abar[:, 2]
    flux = (
        a11[:, None, None] * b[:, None, :] * b[:, :, None]
        + a12[:, None, None] * (b[:, None, :] * c[:, :, None] + c[:, None, :] * b[:, :, None])
        + a22[:, None, None] * c[:, None, :] * c[:, :, None]
    )
    K = flux * (area / (det * det))[:, None, None]
    phi = np.einsum("q,eq,qi,qj->eij", _W_FINE, v_vals, _BARY_FINE, _BARY_FINE)
    M = phi * area[:, None, None]
    return K, M


# ---------------------------------------------------------------------------
# assembly


def _packed_samples(a_field: MatrixField, points: np.ndarray) -> np.ndarray:
    """Checked samples (a11, a12, a22) of ``a_field`` at ``points``, (N, 3).

    An isotropic field is sampled as its scalar s: the matrix path would read
    a11 = a22 = s·1, a12 = (s·0 + s·0)/2 = 0 and λ_min = (s/2 + s/2) − 0."""
    if a_field.scalar is not None:
        s = np.asarray(a_field.scalar(points), dtype=float)
        if s.shape != (len(points),):
            raise AssemblyError(f"matrix field {a_field.name!r} returned shape {s.shape}")
        half = 0.5 * s
        _check_ellipticity(a_field, half + half, points)
        return np.stack([s, np.zeros_like(s), s], axis=1)
    samples = a_field(points)
    _check_spd_samples(a_field, samples, points)
    return np.stack(
        [samples[:, 0, 0], 0.5 * (samples[:, 0, 1] + samples[:, 1, 0]), samples[:, 1, 1]],
        axis=1,
    )


def _check_spd_samples(a_field: MatrixField, samples: np.ndarray, points: np.ndarray):
    # Each guard here and on v0 is written so that a NaN sample fails it, as
    # every comparison with NaN is false; argmax and argmin pick the first NaN.
    sym_err = np.abs(samples[:, 0, 1] - samples[:, 1, 0])
    if not sym_err.max(initial=0.0) <= 1e-14 * max(1.0, np.abs(samples).max()):
        k = int(sym_err.argmax())
        raise AssemblyError(
            f"coefficient {a_field.name!r} not symmetric at {points[k].tolist()}"
        )
    # λ_min = mean − radius from halved entries, which square nothing
    half = 0.5 * samples
    a12 = half[:, 0, 1] + half[:, 1, 0]
    lam_min = (half[:, 0, 0] + half[:, 1, 1]) - np.hypot(half[:, 0, 0] - half[:, 1, 1], a12)
    _check_ellipticity(a_field, lam_min, points)


def _check_ellipticity(a_field: MatrixField, lam_min: np.ndarray, points: np.ndarray):
    bad = ~(lam_min >= a_field.ellipticity * (1 - 1e-9))
    if bad.any():
        k = int(np.argmax(bad))
        raise AssemblyError(
            f"coefficient {a_field.name!r} loses ellipticity at "
            f"{points[k].tolist()} (lambda_min={lam_min[k]:.3e})"
        )


def assemble_energy_split(mesh: TriangleMesh, coeff: CoefficientField):
    """Stiffness ``K`` and potential-mass ``M`` parts of the energy form;
    ``assemble_energy`` returns their sum."""
    coords = mesh.nodes[mesh.triangles]
    # Physical quadrature points, pulled a hair toward the element centroid so
    # samples are taken strictly inside the element: coefficient values at
    # points exactly on an interface (or on a straightening-piece edge) would
    # otherwise be ill-defined.
    pts = np.einsum("qi,eik->eqk", _BARY_FINE, coords)
    cent = coords.mean(axis=1)
    pts = pts + 1e-9 * (cent[:, None, :] - pts)
    pts = pts.reshape(-1, 2)
    a_packed = _packed_samples(coeff.a, pts)
    v_raw = coeff.v0(pts)
    if not (v_raw >= -1e-14).all():
        k = int(np.argmin(v_raw))
        raise AssemblyError(f"potential negative or NaN at {pts[k].tolist()} (v0={v_raw[k]:.3e})")
    m, nq = len(mesh.triangles), len(_W_FINE)
    a_sym = a_packed.reshape(m, nq, 3)
    v_vals = v_raw.reshape(m, nq)
    K_e, M_e = _element_forms(coords, a_sym, v_vals)

    n = mesh.n_nodes
    tri = mesh.triangles
    rows = np.repeat(tri, 3, axis=1).ravel()
    cols = np.tile(tri, (1, 3)).ravel()
    K = sp.coo_matrix((K_e.ravel(), (rows, cols)), shape=(n, n)).tocsr()
    M = sp.coo_matrix((M_e.ravel(), (rows, cols)), shape=(n, n)).tocsr()
    return K, M


def assemble_energy(mesh: TriangleMesh, coeff: CoefficientField) -> sp.csr_matrix:
    """Sparse SPD matrix of the energy form ⟨a∇u,∇u⟩ + v₀u²."""
    K, M = assemble_energy_split(mesh, coeff)
    return (K + M).tocsr()


def assemble_boundary_weight(mesh: TriangleMesh, rho: BoundaryWeight) -> sp.csr_matrix:
    """Sparse symmetric boundary matrix: per edge of length ℓ and weight ρ the
    block ρ·(ℓ/6)·[[2,1],[1,2]] on its endpoint pair (exact for edgewise-
    constant ρ)."""
    u = mesh.boundary_edges[:, 0]
    v = mesh.boundary_edges[:, 1]
    vals = rho(mesh.boundary_parent, mesh.nodes[u], mesh.nodes[v])
    ln = mesh.boundary_edge_lengths()
    c = vals * ln / 6.0
    rows = np.concatenate([u, v, u, v])
    cols = np.concatenate([u, v, v, u])
    data = np.concatenate([2 * c, 2 * c, c, c])
    n = mesh.n_nodes
    return sp.coo_matrix((data, (rows, cols)), shape=(n, n)).tocsr()


@dataclass
class AssembledForms:
    """Energy and weight matrices, indexed by mesh node."""

    A: sp.csr_matrix
    B: sp.csr_matrix


def assemble_forms(mesh: TriangleMesh, coeff: CoefficientField) -> AssembledForms:
    A = assemble_energy(mesh, coeff)
    B = assemble_boundary_weight(mesh, coeff.rho)
    return AssembledForms(A, B)


# ---------------------------------------------------------------------------
# pullback under straightening


def pullback_coefficients(coeff: CoefficientField, smap: StraighteningMap) -> CoefficientField:
    """Transform (a, v₀, ρ) so the straightened problem has the same forms.

    On collar pieces with Jacobian J: ǎ(y) = J a(Ψ(y)) Jᵀ / det J and
    v̌(y) = v₀(Ψ(y)) / det J; outside the collar the map is the identity and
    coefficients pass through.  The boundary weight picks up the length ratio
    of source to image edges (the boundary Jacobian).
    """
    base_a, base_v, base_rho = coeff.a, coeff.v0, coeff.rho
    jac = smap.jacobians
    dets = smap.dets

    def a_fn(pts):
        src, piece = smap.pull(pts)
        vals = np.array(base_a(src))
        hit = piece >= 0
        if hit.any():
            J = jac[piece[hit]]
            d = dets[piece[hit]]
            vals[hit] = np.einsum("kij,kjl,kml->kim", J, vals[hit], J) / d[:, None, None]
        return vals

    def v_fn(pts):
        src, piece = smap.pull(pts)
        vals = np.array(base_v(src))
        hit = piece >= 0
        if hit.any():
            vals[hit] = vals[hit] / dets[piece[hit]]
        return vals

    a_ell = base_a.ellipticity * min(
        1.0, float((1.0 / (np.linalg.norm(np.linalg.inv(jac), ord=2, axis=(1, 2)) ** 2 * dets)).min())
    )
    a_out = MatrixField(f"pullback({base_a.name})", a_fn, ellipticity=max(a_ell, 1e-12))
    v_out = ScalarField(f"pullback({base_v.name})", v_fn)

    def rho_fn(parents, p0, p1):
        # the factor is the local boundary stretch: source over image length
        # of each edge, so a zero-length edge (a single point) has none
        img_len = np.linalg.norm(p1 - p0, axis=1)
        if not (img_len > 0).all():
            raise AssemblyError("pulled-back weight needs boundary edges of positive length")
        s0, s1 = np.split(smap.pull(np.vstack([p0, p1]))[0], 2)
        return base_rho(parents, s0, s1) * (np.linalg.norm(s1 - s0, axis=1) / img_len)

    rho_out = BoundaryWeight(f"pullback({base_rho.name})", rho_fn)
    return CoefficientField(a_out, v_out, rho_out)
