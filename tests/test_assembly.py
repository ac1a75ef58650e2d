"""Form assembly: quadrature correctness, element-order invariance, and
coefficient catalog."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steklovlab import assembly, geometry
from steklovlab.assembly import (
    AssemblyError,
    CoefficientField,
    assemble_boundary_weight,
    assemble_energy,
    assemble_energy_split,
    boundary_matched_rough,
    checkerboard,
    constant_matrix,
    constant_potential,
    constant_weight,
    make_matrix_field,
    mollified,
    rotated_diagonal,
    segment_weight,
)

import oracles


def _cf(a=None, v0=None, rho=None):
    return CoefficientField(
        a or constant_matrix(1.0),
        v0 or constant_potential(0.0),
        rho or constant_weight(1.0),
    )


# ---------------------------------------------------------------------------
# exact identities


def test_constant_energy_matches_dirichlet_integral(square_mesh):
    # u(x, y) = x is in the P1 space, grad u = (1, 0), a = diag(3, 7):
    # the energy is exactly 3 * area.
    A = assemble_energy(square_mesh, _cf(a=make_matrix_field("diagonal", p=3.0, q=7.0)))
    u = square_mesh.nodes[:, 0]
    assert u @ (A @ u) == pytest.approx(3.0, rel=1e-12)
    v = square_mesh.nodes[:, 1]
    assert v @ (A @ v) == pytest.approx(7.0, rel=1e-12)


def test_mass_of_constant_is_weighted_area(square_mesh):
    K, M = assemble_energy_split(square_mesh, _cf(v0=constant_potential(2.5)))
    ones = np.ones(square_mesh.n_nodes)
    assert ones @ (M @ ones) == pytest.approx(2.5 * 1.0, rel=1e-12)
    assert abs(ones @ (K @ ones)) < 1e-12  # constants carry no stiffness energy


def test_boundary_weight_integrates_rho(square_mesh, square_domain):
    rho = segment_weight([1.0, 2.0, -1.0, 0.5])
    B = assemble_boundary_weight(square_mesh, rho)
    ones = np.ones(square_mesh.n_nodes)
    expected = np.dot([1.0, 2.0, -1.0, 0.5], square_domain.segment_lengths())
    assert ones @ (B @ ones) == pytest.approx(expected, rel=1e-12)
    # B is supported on boundary nodes only
    interior = np.setdiff1d(np.arange(square_mesh.n_nodes), square_mesh.boundary_nodes())
    assert np.abs(B[interior].toarray()).max() == 0.0


def test_energy_split_is_a_split(square_mesh):
    coeff = _cf(v0=constant_potential(0.7))
    K, M = assemble_energy_split(square_mesh, coeff)
    A = assemble_energy(square_mesh, coeff)
    assert np.abs((K + M - A).toarray()).max() < 1e-14


# ---------------------------------------------------------------------------
# brute-force quadrature oracle for a discontinuous coefficient


def test_checkerboard_energy_against_brute_quadrature(square_domain):
    mesh = geometry.triangulate(square_domain, 0.21)
    cell = 0.5
    a = checkerboard(cell=cell, low=1.0, high=4.0, origin=(0.0137, 0.0071))
    A = assemble_energy(mesh, _cf(a=a))
    u = np.sin(mesh.nodes[:, 0] * 2.1) + mesh.nodes[:, 1] ** 2
    energy = float(u @ (A @ u))

    # same quantity from plain centroid quadrature on heavily subdivided
    # triangles, with the P1 gradient computed from the nodal values directly
    total = 0.0
    uncut_gap = 0.0
    n_uncut = 0
    for tri in mesh.triangles:
        p = mesh.nodes[tri]
        G = np.column_stack([p[1] - p[0], p[2] - p[0]])
        duv = np.array([u[tri[1]] - u[tri[0]], u[tri[2]] - u[tri[0]]])
        grad = np.linalg.solve(G.T, duv)
        brute = oracles.element_energy_brute(p, grad, grad, a, levels=5)
        total += brute
        cells = np.floor((p - [0.0137, 0.0071]) / cell).astype(int)
        if (cells == cells[0]).all():  # triangle inside one convex cell
            n_uncut += 1
            val = a(p.mean(axis=0, keepdims=True))[0, 0, 0]
            area = 0.5 * abs(G[0, 0] * G[1, 1] - G[0, 1] * G[1, 0])
            exact = val * float(grad @ grad) * area
            uncut_gap = max(uncut_gap, abs(brute - exact) / abs(exact))
    # on elements the interface does not cut, the subdivided-centroid rule is
    # exact for this constant-gradient integrand
    assert n_uncut > 10
    assert uncut_gap < 1e-12
    # elements the interface does cut carry genuine quadrature disagreement
    # between any two fixed rules, so the global totals agree only to the
    # interface-resolution error of this coarse mesh
    assert energy == pytest.approx(total, rel=0.03)


# ---------------------------------------------------------------------------
# element-order invariance


def test_triangle_order_invariance(square_domain):
    mesh = geometry.triangulate(square_domain, 0.14)
    rev = geometry.TriangleMesh(
        nodes=mesh.nodes,
        triangles=mesh.triangles[::-1].copy(),
        boundary_edges=mesh.boundary_edges,
        boundary_parent=mesh.boundary_parent,
        boundary_normals=mesh.boundary_normals,
        h=mesh.h,
    )
    coeff = _cf(a=checkerboard(cell=0.3, low=1.0, high=2.0))
    d = (assemble_energy(mesh, coeff) - assemble_energy(rev, coeff)).toarray()
    assert np.abs(d).max() < 1e-13


# ---------------------------------------------------------------------------
# coefficient catalog properties


@given(
    p=st.floats(0.1, 50.0),
    q=st.floats(0.1, 50.0),
    angle=st.floats(-10.0, 10.0),
)
@settings(deadline=None, max_examples=60)
def test_rotated_diagonal_spectrum_is_rotation_invariant(p, q, angle):
    fld = rotated_diagonal(p=p, q=q, angle=angle)
    mats = fld(np.array([[0.3, 0.4]]))
    eigs = np.sort(np.linalg.eigvalsh(mats[0]))
    assert eigs == pytest.approx(sorted([p, q]), rel=1e-10)


@given(
    x=st.floats(-3.0, 3.0),
    y=st.floats(-3.0, 3.0),
    eps=st.floats(1e-3, 0.5),
)
@settings(deadline=None, max_examples=40)
def test_mollified_stays_between_phases(x, y, eps):
    base = checkerboard(cell=0.25, low=1.0, high=4.0)
    fld = mollified(base, eps)
    val = fld(np.array([[x, y]]))[0]
    eigs = np.linalg.eigvalsh(val)
    assert eigs.min() >= 1.0 - 1e-9
    assert eigs.max() <= 4.0 + 1e-9


def test_mollified_keeps_quadrature_class():
    base = checkerboard(cell=0.25)
    assert mollified(base, 0.05).smooth == base.smooth
    assert mollified(constant_matrix(2.0), 0.05).smooth is True
    with pytest.raises(AssemblyError):
        mollified(base, 0.0)


def test_boundary_matched_rough_trace(square_domain):
    trace = constant_matrix(1.0)
    interior = checkerboard(cell=0.2, low=1.0, high=6.0)
    fld = boundary_matched_rough(square_domain, interior, trace, 0.15)

    # exact agreement on the boundary itself
    t = np.linspace(0.0, 1.0, 57)
    edge = np.column_stack([t, np.zeros_like(t)])
    assert np.abs(fld(edge) - trace(edge)).max() < 1e-12
    # pure interior field beyond the blend collar
    deep = np.array([[0.5, 0.5], [0.45, 0.55]])
    assert np.abs(fld(deep) - interior(deep)).max() < 1e-12


def test_catalog_rejects_unknown():
    with pytest.raises(AssemblyError):
        make_matrix_field("perlin-noise")
    with pytest.raises(AssemblyError):
        assembly.make_weight("random")
    with pytest.raises(AssemblyError):
        checkerboard(cell=-1.0)


def test_assembly_guards(square_mesh):
    indefinite = assembly.MatrixField(
        "broken", {}, lambda pts: np.tile(np.diag([1.0, -1.0]), (len(pts), 1, 1))
    )
    with pytest.raises(AssemblyError, match="positive definite|ellipticity"):
        assemble_energy(square_mesh, _cf(a=indefinite))

    negative_v = assembly.ScalarField("bad-v", {}, lambda pts: -np.ones(len(pts)))
    with pytest.raises(AssemblyError, match="negative"):
        assemble_energy(square_mesh, _cf(v0=negative_v))


def test_pullback_preserves_energy_integrals():
    dom = geometry.make_domain("sawtooth-square")
    smap = geometry.build_straightening(dom, dom.charts[0], 0.2)
    src, img = geometry.build_matched_meshes(smap, 0.125)
    coeff = _cf(
        a=rotated_diagonal(p=2.0, q=1.0, angle=0.2), v0=constant_potential(1.0)
    )
    pulled = assembly.pullback_coefficients(coeff, smap)
    A_src = assemble_energy(src, coeff)
    A_img = assemble_energy(img, pulled)
    u = np.cos(src.nodes[:, 0]) * src.nodes[:, 1]
    # matched meshes share node indexing, so the same nodal vector represents
    # corresponding functions and the quadratic forms must agree
    assert u @ (A_src @ u) == pytest.approx(u @ (A_img @ u), rel=1e-10)
