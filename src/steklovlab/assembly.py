"""P1 finite-element assembly of the energy and boundary-weight forms.

Builds sparse symmetric matrices for the quadratic forms

    energy[u]  = ∫_Ω ⟨a ∇u, ∇u⟩ + v₀ u² dx
    weight[u]  = ∫_Σ ρ (γu)² dμ

over hat functions on a triangle mesh, plus the coefficient catalog (named
SPD matrix fields, scalar potentials, boundary weights) and the pullback of
coefficients under a piecewise-affine straightening map.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .geometry import PolygonDomain, StraighteningMap, TriangleMesh

__all__ = [
    "AssemblyError",
    "MatrixField",
    "ScalarField",
    "BoundaryWeight",
    "CoefficientField",
    "AssembledForms",
    "constant_matrix",
    "diagonal_matrix",
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

    ``smooth`` controls quadrature: fields flagged non-smooth get the refined
    (subdivided) rule so interfaces crossing elements stay O(h) accurate.
    ``ellipticity`` is the declared lower bound on the smallest eigenvalue,
    checked at every quadrature point during assembly.
    """

    name: str
    params: dict
    fn: object
    smooth: bool = True
    ellipticity: float = 1e-9

    def __call__(self, points) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        out = np.asarray(self.fn(pts), dtype=float)
        if out.shape != (len(pts), 2, 2):
            raise AssemblyError(
                f"matrix field {self.name!r} returned shape {out.shape}"
            )
        return out


@dataclass(frozen=True)
class ScalarField:
    """Nonnegative scalar potential v₀(x)."""

    name: str
    params: dict
    fn: object
    smooth: bool = True

    def __call__(self, points) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return np.asarray(self.fn(pts), dtype=float).reshape(len(pts))


@dataclass(frozen=True)
class BoundaryWeight:
    """Boundary weight ρ, constant along each mesh boundary edge.

    ``value_at(parents, points)`` evaluates ρ from the parent polygon-segment
    id and the edge midpoint; ``edge_values(mesh)`` is the per-edge vector the
    assembler consumes.  ``bound`` is the declared sup-norm bound.
    """

    name: str
    params: dict
    fn: object
    bound: float = np.inf

    def value_at(self, parents, points) -> np.ndarray:
        parents = np.asarray(parents, dtype=np.int64)
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        vals = np.asarray(self.fn(parents, pts), dtype=float).reshape(len(parents))
        if np.abs(vals).max(initial=0.0) > self.bound + 1e-12:
            raise AssemblyError(f"weight {self.name!r} exceeds declared bound")
        return vals

    def edge_values(self, mesh: TriangleMesh) -> np.ndarray:
        mids = 0.5 * (
            mesh.nodes[mesh.boundary_edges[:, 0]]
            + mesh.nodes[mesh.boundary_edges[:, 1]]
        )
        return self.value_at(mesh.boundary_parent, mids)


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
    if v <= 0:
        raise AssemblyError("constant coefficient must be positive")
    mat = v * np.eye(2)

    def fn(pts):
        return np.broadcast_to(mat, (len(pts), 2, 2))

    return MatrixField("constant", {"value": v}, fn, ellipticity=v)


def diagonal_matrix(p: float, q: float) -> MatrixField:
    p, q = float(p), float(q)
    if min(p, q) <= 0:
        raise AssemblyError("diagonal entries must be positive")
    mat = np.diag([p, q])

    def fn(pts):
        return np.broadcast_to(mat, (len(pts), 2, 2))

    return MatrixField("diagonal", {"p": p, "q": q}, fn, ellipticity=min(p, q))


def rotated_diagonal(p: float, q: float, angle: float) -> MatrixField:
    """diag(p, q) conjugated by a rotation of ``angle`` radians."""
    p, q, t = float(p), float(q), float(angle)
    if min(p, q) <= 0:
        raise AssemblyError("diagonal entries must be positive")
    c, s = math.cos(t), math.sin(t)
    R = np.array([[c, -s], [s, c]])
    mat = R @ np.diag([p, q]) @ R.T

    def fn(pts):
        return np.broadcast_to(mat, (len(pts), 2, 2))

    return MatrixField(
        "rotated-diagonal", {"p": p, "q": q, "angle": t}, fn, ellipticity=min(p, q)
    )


def checkerboard(
    cell: float, low: float = 1.0, high: float = 4.0, origin=(0.0, 0.0)
) -> MatrixField:
    """Isotropic two-phase field: ``low``·I and ``high``·I on alternating
    cells of the given pitch."""
    cell = float(cell)
    if cell <= 0 or min(low, high) <= 0:
        raise AssemblyError("checkerboard needs positive cell and values")
    ox, oy = float(origin[0]), float(origin[1])
    eye = np.eye(2)

    def fn(pts):
        ij = np.floor((pts - (ox, oy)) / cell).astype(np.int64)
        odd = (ij[:, 0] + ij[:, 1]) % 2 == 1
        vals = np.where(odd, high, low)
        return vals[:, None, None] * eye

    return MatrixField(
        "checkerboard",
        {"cell": cell, "low": low, "high": high, "origin": (ox, oy)},
        fn,
        smooth=False,
        ellipticity=min(low, high),
    )


def _distance_to_boundary(domain: PolygonDomain, pts: np.ndarray) -> np.ndarray:
    p, q = domain.segment_points()
    d = q - p
    L2 = np.sum(d * d, axis=1)
    # (npts, nseg) projection parameter, clamped to the segment
    w = pts[:, None, :] - p[None, :, :]
    t = np.clip(np.einsum("psk,sk->ps", w, d) / L2[None, :], 0.0, 1.0)
    closest = p[None, :, :] + t[:, :, None] * d[None, :, :]
    dist = np.linalg.norm(pts[:, None, :] - closest, axis=2)
    return dist.min(axis=1)


def boundary_matched_rough(
    domain: PolygonDomain,
    interior: MatrixField,
    trace: MatrixField,
    blend_width: float,
) -> MatrixField:
    """Field equal to ``trace`` on the boundary, blended into ``interior``
    over a collar of the given width (smoothstep in boundary distance)."""
    w = float(blend_width)
    if w <= 0:
        raise AssemblyError("blend width must be positive")

    def fn(pts):
        dist = _distance_to_boundary(domain, pts)
        t = np.clip(dist / w, 0.0, 1.0)
        s = t * t * (3.0 - 2.0 * t)
        return (1 - s)[:, None, None] * trace(pts) + s[:, None, None] * interior(pts)

    return MatrixField(
        "boundary-matched-rough",
        {
            "interior": (interior.name, interior.params),
            "trace": (trace.name, trace.params),
            "blend_width": w,
        },
        fn,
        smooth=interior.smooth and trace.smooth,
        ellipticity=min(interior.ellipticity, trace.ellipticity),
    )


_MOLL_NODES, _MOLL_WEIGHTS = np.polynomial.legendre.leggauss(5)


def mollified(base: MatrixField, eps: float) -> MatrixField:
    """Average of ``base`` over the square [-ε, ε]² (tensor Gauss rule).

    Averaging SPD matrices is a convex combination, so ellipticity bounds
    carry over unchanged; the result is continuous in x.
    """
    eps = float(eps)
    if eps <= 0:
        raise AssemblyError("mollification scale must be positive")
    gx, gy = np.meshgrid(_MOLL_NODES, _MOLL_NODES, indexing="ij")
    offsets = eps * np.stack([gx.ravel(), gy.ravel()], axis=1)
    wts = np.outer(_MOLL_WEIGHTS, _MOLL_WEIGHTS).ravel()
    wts = wts / wts.sum()

    def fn(pts):
        out = np.zeros((len(pts), 2, 2))
        for off, w in zip(offsets, wts):
            out += w * base(pts + off)
        return out

    # quadrature must follow the base field: for eps below the element size
    # the averaged field still varies inside elements, and mixing rules would
    # leave an eps-independent gap against the sharp assembly
    return MatrixField(
        "mollified",
        {"base": (base.name, base.params), "eps": eps},
        fn,
        smooth=base.smooth,
        ellipticity=base.ellipticity,
    )


def make_matrix_field(name: str, *, domain: PolygonDomain | None = None, **params) -> MatrixField:
    """Catalog dispatch: constant, diagonal, rotated-diagonal, checkerboard,
    boundary-matched-rough, mollified."""
    key = name.strip().lower().replace("_", "-")
    if key == "constant":
        return constant_matrix(**params)
    if key == "diagonal":
        return diagonal_matrix(**params)
    if key == "rotated-diagonal":
        return rotated_diagonal(**params)
    if key == "checkerboard":
        return checkerboard(**params)
    if key == "boundary-matched-rough":
        if domain is None:
            raise AssemblyError("boundary-matched-rough needs the domain")
        interior = make_matrix_field(
            params.pop("interior"), domain=domain, **params.pop("interior_params", {})
        )
        trace = make_matrix_field(
            params.pop("trace", "constant"), domain=domain, **params.pop("trace_params", {})
        )
        return boundary_matched_rough(domain, interior, trace, **params)
    if key == "mollified":
        base = make_matrix_field(
            params.pop("base"), domain=domain, **params.pop("base_params", {})
        )
        return mollified(base, **params)
    raise AssemblyError(f"unknown matrix coefficient {name!r}")


# -- potential catalog ---------------------------------------------------


def constant_potential(value: float = 1.0) -> ScalarField:
    v = float(value)
    if v < 0:
        raise AssemblyError("potential must be nonnegative")

    def fn(pts):
        return np.full(len(pts), v)

    return ScalarField("constant", {"value": v}, fn)


def bump_potential(center=(0.0, 0.0), radius: float = 0.5, height: float = 1.0) -> ScalarField:
    """Compactly supported smooth bump: height·exp(1 − R²/(R² − r²)) inside
    the disk of the given radius, zero outside."""
    cx, cy = float(center[0]), float(center[1])
    R, hgt = float(radius), float(height)
    if R <= 0 or hgt < 0:
        raise AssemblyError("bump needs positive radius and nonnegative height")

    def fn(pts):
        r2 = (pts[:, 0] - cx) ** 2 + (pts[:, 1] - cy) ** 2
        out = np.zeros(len(pts))
        inside = r2 < R * R * (1 - 1e-12)
        out[inside] = hgt * np.exp(1.0 - R * R / (R * R - r2[inside]))
        return out

    return ScalarField(
        "bump", {"center": (cx, cy), "radius": R, "height": hgt}, fn
    )


def make_potential(name: str, **params) -> ScalarField:
    key = name.strip().lower().replace("_", "-")
    if key == "constant":
        return constant_potential(**params)
    if key == "bump":
        return bump_potential(**params)
    raise AssemblyError(f"unknown potential {name!r}")


# -- boundary weight catalog ----------------------------------------------


def constant_weight(value: float = 1.0) -> BoundaryWeight:
    v = float(value)

    def fn(parents, pts):
        return np.full(len(parents), v)

    return BoundaryWeight("constant", {"value": v}, fn, bound=abs(v))


def segment_weight(values) -> BoundaryWeight:
    """Piecewise-constant weight: one value per polygon segment id."""
    vals = np.asarray(values, dtype=float)

    def fn(parents, pts):
        if parents.max(initial=-1) >= len(vals):
            raise AssemblyError("segment weight has no value for a parent id")
        return vals[parents]

    return BoundaryWeight(
        "per-segment", {"values": vals.tolist()}, fn, bound=float(np.abs(vals).max())
    )


def make_weight(name: str, **params) -> BoundaryWeight:
    key = name.strip().lower().replace("_", "-")
    if key == "constant":
        return constant_weight(**params)
    if key == "per-segment":
        return segment_weight(**params)
    raise AssemblyError(f"unknown weight {name!r}")


# ---------------------------------------------------------------------------
# quadrature

# Order-2 Gauss rule on the reference triangle: edge midpoints, weights 1/3.
_BARY_MID = np.array(
    [[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]]
)
_W_MID = np.full(3, 1.0 / 3.0)


def _refined_rule(bary, w, levels=1):
    """Apply the base rule on each of 4**levels congruent subtriangles."""
    bary = np.asarray(bary, dtype=float)
    w = np.asarray(w, dtype=float)
    for _ in range(levels):
        corners = [
            # (v0, v1, v2) of each subtriangle in barycentric coordinates
            ((1, 0, 0), (0.5, 0.5, 0), (0.5, 0, 0.5)),
            ((0.5, 0.5, 0), (0, 1, 0), (0, 0.5, 0.5)),
            ((0.5, 0, 0.5), (0, 0.5, 0.5), (0, 0, 1)),
            ((0.5, 0.5, 0), (0, 0.5, 0.5), (0.5, 0, 0.5)),
        ]
        nb = []
        nw = []
        for cs in corners:
            C = np.array(cs, dtype=float)
            nb.append(bary @ C)
            nw.append(w / 4.0)
        bary = np.concatenate(nb, axis=0)
        w = np.concatenate(nw)
    return bary, w


_BARY_FINE, _W_FINE = _refined_rule(_BARY_MID, _W_MID, levels=1)


# ---------------------------------------------------------------------------
# element kernel


def _element_forms(coords, a_sym, v_vals, bary, wq):
    """Per-element stiffness and mass blocks.

    coords: (m, 3, 2) triangle vertices; a_sym: (m, nq, 3) packed SPD samples
    (a11, a12, a22); v_vals: (m, nq) potential samples; bary: (nq, 3)
    barycentric quadrature points with weights wq summing to 1.
    Returns (m, 3, 3) stiffness and mass blocks.
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
    abar = np.einsum("q,eqk->ek", wq, a_sym)
    a11, a12, a22 = abar[:, 0], abar[:, 1], abar[:, 2]
    flux = (
        a11[:, None, None] * b[:, None, :] * b[:, :, None]
        + a12[:, None, None] * (b[:, None, :] * c[:, :, None] + c[:, None, :] * b[:, :, None])
        + a22[:, None, None] * c[:, None, :] * c[:, :, None]
    )
    K = flux * (area / (det * det))[:, None, None]
    phi = np.einsum("q,eq,qi,qj->eij", wq, v_vals, bary, bary)
    M = phi * area[:, None, None]
    return K, M


# ---------------------------------------------------------------------------
# assembly


def _check_spd_samples(a_field: MatrixField, samples: np.ndarray, points: np.ndarray):
    sym_err = np.abs(samples[:, 0, 1] - samples[:, 1, 0])
    if sym_err.max(initial=0.0) > 1e-14 * max(1.0, np.abs(samples).max()):
        k = int(sym_err.argmax())
        raise AssemblyError(
            f"coefficient {a_field.name!r} not symmetric at {points[k].tolist()}"
        )
    tr = samples[:, 0, 0] + samples[:, 1, 1]
    det = samples[:, 0, 0] * samples[:, 1, 1] - samples[:, 0, 1] * samples[:, 1, 0]
    lam_min = 0.5 * (tr - np.sqrt(np.maximum(tr * tr - 4 * det, 0.0)))
    bad = lam_min < a_field.ellipticity * (1 - 1e-9)
    if bad.any():
        k = int(np.argmax(bad))
        raise AssemblyError(
            f"coefficient {a_field.name!r} loses ellipticity at "
            f"{points[k].tolist()} (lambda_min={lam_min[k]:.3e})"
        )


def _quad_rule_for(coeff: CoefficientField):
    if coeff.a.smooth and coeff.v0.smooth:
        return _BARY_MID, _W_MID
    return _BARY_FINE, _W_FINE


def assemble_energy_split(mesh: TriangleMesh, coeff: CoefficientField):
    """Stiffness and potential-mass parts of the energy form, separately.

    ``A = K + M`` is the full energy matrix; callers that sweep the potential
    magnitude reuse ``K`` and rescale ``M``.
    """
    coords = mesh.nodes[mesh.triangles]
    bary, wq = _quad_rule_for(coeff)
    # Physical quadrature points, pulled a hair toward the element centroid so
    # samples are taken strictly inside the element: coefficient values at
    # points exactly on an interface (or on a straightening-piece edge) would
    # otherwise be ill-defined.
    pts = np.einsum("qi,eik->eqk", bary, coords)
    cent = coords.mean(axis=1)
    pts = pts + 1e-9 * (cent[:, None, :] - pts)
    pts = pts.reshape(-1, 2)
    a_raw = coeff.a(pts)
    _check_spd_samples(coeff.a, a_raw, pts)
    v_raw = coeff.v0(pts)
    if (v_raw < -1e-14).any():
        k = int(np.argmin(v_raw))
        raise AssemblyError(f"potential negative at {pts[k].tolist()}")
    m = len(mesh.triangles)
    nq = len(wq)
    a_sym = np.stack(
        [a_raw[:, 0, 0], 0.5 * (a_raw[:, 0, 1] + a_raw[:, 1, 0]), a_raw[:, 1, 1]],
        axis=1,
    ).reshape(m, nq, 3)
    v_vals = v_raw.reshape(m, nq)
    K_e, M_e = _element_forms(coords, a_sym, v_vals, bary, wq)

    n = mesh.n_nodes
    tri = mesh.triangles
    rows = np.repeat(tri, 3, axis=1).ravel()
    cols = np.tile(tri, (1, 3)).ravel()
    K = sp.coo_matrix((K_e.ravel(), (rows, cols)), shape=(n, n)).tocsr()
    M = sp.coo_matrix((M_e.ravel(), (rows, cols)), shape=(n, n)).tocsr()
    K.sum_duplicates()
    M.sum_duplicates()
    return K, M


def assemble_energy(mesh: TriangleMesh, coeff: CoefficientField) -> sp.csr_matrix:
    """Sparse SPD matrix of the energy form ⟨a∇u,∇u⟩ + v₀u²."""
    K, M = assemble_energy_split(mesh, coeff)
    return (K + M).tocsr()


def assemble_boundary_weight(mesh: TriangleMesh, rho: BoundaryWeight) -> sp.csr_matrix:
    """Sparse symmetric boundary matrix: per edge of length ℓ and weight ρ the
    block ρ·(ℓ/6)·[[2,1],[1,2]] on its endpoint pair (exact for edgewise-
    constant ρ)."""
    vals = np.asarray(rho.edge_values(mesh), dtype=float)
    if vals.shape != (len(mesh.boundary_edges),):
        raise AssemblyError("weight generator returned wrong shape")
    ln = mesh.boundary_edge_lengths()
    u = mesh.boundary_edges[:, 0]
    v = mesh.boundary_edges[:, 1]
    c = vals * ln / 6.0
    rows = np.concatenate([u, v, u, v])
    cols = np.concatenate([u, v, v, u])
    data = np.concatenate([2 * c, 2 * c, c, c])
    n = mesh.n_nodes
    B = sp.coo_matrix((data, (rows, cols)), shape=(n, n)).tocsr()
    B.sum_duplicates()
    return B


@dataclass
class AssembledForms:
    """Energy and weight matrices with their node indexing."""

    A: sp.csr_matrix
    B: sp.csr_matrix
    dof_map: np.ndarray
    quadrature_order: int = 2


def assemble_forms(mesh: TriangleMesh, coeff: CoefficientField) -> AssembledForms:
    A = assemble_energy(mesh, coeff)
    B = assemble_boundary_weight(mesh, coeff.rho)
    return AssembledForms(A, B, np.arange(mesh.n_nodes), 2)


# ---------------------------------------------------------------------------
# pullback under straightening


def pullback_coefficients(
    coeff: CoefficientField,
    smap: StraighteningMap,
    *,
    omit_boundary_jacobian: bool = False,
) -> CoefficientField:
    """Transform (a, v₀, ρ) so the straightened problem has the same forms.

    On collar pieces with Jacobian J: ǎ(y) = J a(Ψ(y)) Jᵀ / det J and
    v̌(y) = v₀(Ψ(y)) / det J; outside the collar the map is the identity and
    coefficients pass through.  The boundary weight picks up the length ratio
    of source to image edges (the boundary Jacobian); ``omit_boundary_jacobian``
    drops that factor deliberately (negative-control experiments).
    """
    base_a, base_v, base_rho = coeff.a, coeff.v0, coeff.rho
    jac = smap.jacobians
    dets = smap.dets

    def a_fn(pts):
        piece = smap.piece_of_image_points(pts)
        src = smap.apply_inverse(pts)
        vals = np.array(base_a(src))
        hit = piece >= 0
        if hit.any():
            J = jac[piece[hit]]
            d = dets[piece[hit]]
            vals[hit] = np.einsum("kij,kjl,kml->kim", J, vals[hit], J) / d[:, None, None]
        return vals

    def v_fn(pts):
        piece = smap.piece_of_image_points(pts)
        src = smap.apply_inverse(pts)
        vals = np.array(base_v(src))
        hit = piece >= 0
        if hit.any():
            vals[hit] = vals[hit] / dets[piece[hit]]
        return vals

    a_ell = base_a.ellipticity * min(
        1.0, float((1.0 / (np.linalg.norm(np.linalg.inv(jac), ord=2, axis=(1, 2)) ** 2 * dets)).min())
    )
    a_out = MatrixField(
        f"pullback({base_a.name})",
        {"base": base_a.params, "pieces": len(dets)},
        a_fn,
        smooth=base_a.smooth,
        ellipticity=max(a_ell, 1e-12),
    )
    v_out = ScalarField(
        f"pullback({base_v.name})",
        {"base": base_v.params},
        v_fn,
        smooth=base_v.smooth,
    )

    def rho_fn(parents, pts):
        # pts are image-edge midpoints; the factor is the local boundary
        # stretch, recovered from short chords through the inverse map.
        raise AssemblyError("pulled-back weight must be evaluated via edge_values")

    class _PulledBackWeight(BoundaryWeight):
        def edge_values(self, mesh: TriangleMesh) -> np.ndarray:
            e = mesh.boundary_edges
            p0 = mesh.nodes[e[:, 0]]
            p1 = mesh.nodes[e[:, 1]]
            s0 = smap.apply_inverse(p0)
            s1 = smap.apply_inverse(p1)
            src_mid = 0.5 * (s0 + s1)
            vals = base_rho.value_at(mesh.boundary_parent, src_mid)
            if not omit_boundary_jacobian:
                src_len = np.linalg.norm(s1 - s0, axis=1)
                img_len = np.linalg.norm(p1 - p0, axis=1)
                vals = vals * (src_len / img_len)
            return vals

    rho_out = _PulledBackWeight(
        f"pullback({base_rho.name})",
        {"base": base_rho.params, "omit_boundary_jacobian": omit_boundary_jacobian},
        rho_fn,
        bound=np.inf,
    )
    return CoefficientField(a_out, v_out, rho_out)
