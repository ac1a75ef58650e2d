"""Form assembly: quadrature correctness, element-order invariance, and
coefficient catalog."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steklovlab import assembly, geometry, weyl
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
    A = assemble_energy(square_mesh, _cf(a=make_matrix_field("rotated-diagonal", p=3.0, q=7.0, angle=0.0)))
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
    interior = np.setdiff1d(np.arange(square_mesh.n_nodes), oracles.boundary_nodes(square_mesh))
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


def test_boundary_matched_rough_trace(square_domain):
    trace = constant_matrix(1.0)
    interior = checkerboard(cell=0.2, low=1.0, high=6.0)
    fld = boundary_matched_rough(square_domain, interior, trace)

    # exact agreement on the boundary itself
    t = np.linspace(0.0, 1.0, 57)
    edge = np.column_stack([t, np.zeros_like(t)])
    assert np.abs(fld(edge) - trace(edge)).max() < 1e-12
    # pure interior field beyond the blend collar
    deep = np.array([[0.5, 0.5], [0.45, 0.55]])
    assert np.abs(fld(deep) - interior(deep)).max() < 1e-12


@pytest.mark.parametrize("name,params", [
    ("square", {}),
    ("lshape", {}),
    ("sawtooth-square", {}),
    ("koch-prefractal", {"level": 2}),
    ("regular-ngon", {"n": 96}),
], ids=["square", "lshape", "sawtooth", "koch-l2", "ngon-96"])
def test_boundary_distance_matches_the_all_pairs_reference_bitwise(name, params):
    dom = geometry.make_domain(name, **params)
    p, q = dom.segment_points()
    gen = np.random.default_rng(36)
    lo, hi = dom.vertices.min(axis=0), dom.vertices.max(axis=0)
    box = gen.uniform(lo - 0.25 * dom.span, hi + 0.25 * dom.span, size=(4000, 2))
    seg = gen.integers(0, dom.n_segments, 1000)
    on_edges = p[seg] + gen.uniform(size=(1000, 1)) * (q - p)[seg]
    pts = np.vstack([box, dom.vertices, on_edges])
    assert dom.contains(box).any() and not dom.contains(box).all()
    got = assembly._distance_to_boundary(dom, pts)
    assert got.tobytes() == oracles.boundary_distance(p, q, pts).tobytes()
    assert (got[len(box) : len(box) + dom.n_segments] == 0).all()


def test_blended_assembly_memory_does_not_grow_with_the_segment_count():
    # Koch L3 has 192 segments: the all-pairs formula of the oracle peaks at
    # about 357 MiB on this input, one entry per quadrature point under 16 MiB
    dom = geometry.make_domain("koch-prefractal", level=3)
    mesh = geometry.triangulate(dom, 0.03)
    rough = boundary_matched_rough(dom, checkerboard(cell=0.2, low=1.0, high=5.0), constant_matrix(1.0))
    coeff = _cf(a=rough, v0=constant_potential(1.0))
    assert oracles.traced_peak_mib(assembly.assemble_forms, mesh, coeff) < 16.0


CHECKER = {"cell": 0.25, "low": 1.0, "high": 4.0, "origin": (0.0137, 0.0071)}


def _checker_ref(pts):
    return oracles.checkerboard_matrices(pts, **CHECKER)


def _isotropic_case(case, dom):
    """(field, matrix-valued reference) for each isotropic field the
    experiments sample, the blend as criterion 5 builds it."""
    if case == "constant":
        return constant_matrix(2.5), lambda pts: 2.5 * np.eye(2) * np.ones((len(pts), 1, 1))
    if case == "checkerboard":
        return checkerboard(**CHECKER), _checker_ref
    if case.startswith("mollified"):
        eps = float(case.split("-")[1])
        return mollified(checkerboard(**CHECKER), eps), (
            lambda pts: oracles.mollified_matrices(_checker_ref, eps, pts)
        )
    interior = dict(CHECKER, cell=0.2, high=5.0)
    p, q = dom.segment_points()
    return boundary_matched_rough(dom, checkerboard(**interior), constant_matrix(1.0)), (
        lambda pts: oracles.blended_matrices(
            oracles.boundary_distance(p, q, pts),
            assembly.BLEND_WIDTH * dom.span,
            lambda x: oracles.checkerboard_matrices(x, **interior),
            lambda x: np.eye(2) * np.ones((len(x), 1, 1)),
            pts,
        )
    )


@pytest.mark.parametrize(
    "case", ["constant", "checkerboard", "mollified-0.16", "mollified-0.00125", "blend"]
)
def test_isotropic_fields_sample_their_scalar_bitwise(case, square_domain):
    # The scalar path gives the matrix path's samples and forms bit for bit:
    # each matrix entry is w·(s·1) or a sum of w·(s·0).
    field, ref = _isotropic_case(case, square_domain)
    assert field.scalar is not None
    mesh = geometry.triangulate(square_domain, 0.04)
    gen = np.random.default_rng(37)
    pts = np.vstack([mesh.nodes, gen.uniform(-0.1, 1.1, size=(3000, 2))])
    want = ref(pts)
    assert field(pts).tobytes() == want.tobytes()
    assert field.scalar(pts).tobytes() == want[:, 0, 0].tobytes()
    assert (want[:, 0, 1] == 0).all() and (want[:, 1, 0] == 0).all()
    assert want[:, 1, 1].tobytes() == want[:, 0, 0].tobytes()
    # a field without the scalar evaluator takes the matrix path
    as_matrices = assembly.MatrixField(field.name, ref, field.ellipticity)
    A = assemble_energy(mesh, _cf(a=field, v0=constant_potential(1.0)))
    A_ref = assemble_energy(mesh, _cf(a=as_matrices, v0=constant_potential(1.0)))
    for got, exp in ((A.indptr, A_ref.indptr), (A.indices, A_ref.indices), (A.data, A_ref.data)):
        assert got.tobytes() == exp.tobytes()


def test_anisotropic_fields_keep_the_matrix_path(square_domain):
    rot = rotated_diagonal(p=4.0, q=1.0, angle=0.5)
    pts = np.random.default_rng(38).uniform(0.0, 1.0, size=(500, 2))
    for field in (rot, mollified(rot, 0.08), boundary_matched_rough(square_domain, rot, constant_matrix(1.0))):
        assert field.scalar is None
    assert mollified(rot, 0.08)(pts).tobytes() == oracles.mollified_matrices(rot, 0.08, pts).tobytes()


def test_catalog_rejects_unknown():
    with pytest.raises(AssemblyError):
        make_matrix_field("perlin-noise")
    with pytest.raises(AssemblyError):
        assembly.make_weight("random")
    with pytest.raises(AssemblyError):
        checkerboard(cell=-1.0)


def test_checkerboard_parity_holds_up_to_the_int64_limit():
    # indices near 8e18 fit int64 but their sum wraps; 9.5e18 does not fit
    a = checkerboard(cell=1e-19, low=1.0, high=9.0)
    pts = np.array([[0.8, 0.85], [-0.9, 0.3], [2.5e-19, 1.5e-19], [2.5e-19, 0.8]])
    want = [9.0 if (math.floor(x / 1e-19) + math.floor(y / 1e-19)) % 2 else 1.0 for x, y in pts]
    assert want[2] == 9.0
    assert a(pts)[:, 0, 0].tolist() == want
    with pytest.raises(AssemblyError, match="checkerboard cell = 1e-19 is too small"):
        a(np.array([[0.1, 0.1], [0.95, 0.0]]))


@pytest.mark.parametrize(
    "make,name,params",
    [
        (assembly.make_potential, "bump", {"center": 1}),
        (assembly.make_potential, "bump", {"center": [0.5, 0.5, 9]}),  # 9 was dropped
        (make_matrix_field, "checkerboard", {"cell": 0.2, "origin": 0}),
        (make_matrix_field, "checkerboard", {"cell": 0.2, "origin": [0.5, 0.5, 9]}),
    ],
)
def test_point_parameters_need_exactly_two_numbers(make, name, params):
    with pytest.raises(AssemblyError, match=rf"{name} needs \w+ as two numbers \(x, y\)"):
        make(name, **params)


def test_per_segment_weight_needs_a_value_per_segment(square_mesh):
    rho = assembly.make_weight("per-segment", values=5.0)  # a config's ``rho.values = 5``
    with pytest.raises(AssemblyError, match="no value"):
        assembly.assemble_boundary_weight(square_mesh, rho)


# Each weight is refused where it is evaluated: by the Weyl coefficient and
# by assembly, instead of counting as zero or ending in an untyped error.
@pytest.mark.parametrize(
    "rho",
    [constant_weight(math.nan), segment_weight([1, math.nan, 1, 1]), constant_weight(math.inf)],
    ids=["constant-nan", "segment-nan", "constant-inf"],
)
def test_non_finite_weight_is_an_assembly_error(square_domain, square_mesh, rho):
    coeff = _cf(rho=rho)
    with pytest.raises(AssemblyError, match=r"boundary weight .* is (nan|inf) on segment"):
        weyl.weyl_coefficient(square_domain, coeff)
    with pytest.raises(AssemblyError, match=r"boundary weight .* is (nan|inf) on segment"):
        assembly.assemble_forms(square_mesh, coeff)


@pytest.mark.parametrize(
    "build",
    [
        lambda: assembly.bump_potential(center=(0.5, 0.5), radius=math.nan),
        lambda: assembly.bump_potential(center=(0.5, 0.5), radius=math.inf),
        lambda: assembly.bump_potential(center=(math.nan, 0.5)),
        lambda: assembly.bump_potential(center=(0.5, 0.5), height=math.inf),
        lambda: checkerboard(cell=math.inf),
        lambda: checkerboard(cell=math.nan),
        lambda: checkerboard(cell=0.2, high=math.inf),
        lambda: checkerboard(cell=0.2, origin=(0.0, math.inf)),
        lambda: rotated_diagonal(4.0, 1.0, angle=math.inf),
        lambda: rotated_diagonal(math.nan, 1.0, angle=0.3),
        lambda: rotated_diagonal(1.0, math.inf, angle=0.0),
        lambda: constant_matrix(math.nan),
        lambda: constant_potential(math.inf),
        lambda: mollified(constant_matrix(), math.nan),
    ],
    ids=[
        "bump-radius-nan", "bump-radius-inf", "bump-center-nan", "bump-height-inf",
        "checkerboard-cell-inf", "checkerboard-cell-nan", "checkerboard-high-inf",
        "checkerboard-origin-inf", "rotated-angle-inf", "rotated-p-nan", "diagonal-q-inf",
        "constant-nan", "potential-inf", "mollify-nan",
    ],
)
def test_non_finite_constructor_parameters_are_refused(build):
    with pytest.raises(AssemblyError, match="finite"):
        build()


def _broken(fn):
    return _cf(a=assembly.MatrixField("broken", lambda pts: fn(len(pts))))


@pytest.mark.parametrize(
    "build,message",
    [
        (
            lambda dom: make_matrix_field("constant", value=0.0),
            "constant coefficient must be positive",
        ),
        (
            lambda dom: make_matrix_field("rotated-diagonal", p=1.0, q=0.0, angle=0.0),
            "diagonal entries must be positive",
        ),
        (
            lambda dom: make_matrix_field("rotated-diagonal", p=-1.0, q=1.0, angle=0.3),
            "diagonal entries must be positive",
        ),
        (
            lambda dom: mollified(checkerboard(cell=0.25), 0.0),
            "mollification scale must be positive",
        ),
        (
            lambda dom: assembly.make_potential("bump", center=[0.5, 0.5], radius=0.0),
            "bump needs positive radius and nonnegative height",
        ),
        (
            lambda dom: assembly.make_potential("bump", center=[0.5, 0.5], height=-1.0),
            "bump needs positive radius and nonnegative height",
        ),
        (lambda dom: _broken(lambda k: np.ones((k, 2))), r"'broken' returned shape \(\d+, 2\)"),
        (
            lambda dom: _broken(lambda k: np.tile([[2.0, 0.5], [0.0, 2.0]], (k, 1, 1))),
            "coefficient 'broken' not symmetric",
        ),
    ],
    ids=[
        "constant-zero", "diagonal-zero", "rotated-negative",
        "mollify-zero", "bump-radius-zero", "bump-height-negative", "wrong-shape",
        "non-symmetric",
    ],
)
def test_rejected_coefficients_raise_their_own_message(
    square_mesh, square_domain, build, message
):
    # the last two build and fail only when assembly samples them
    with pytest.raises(AssemblyError, match=message):
        assemble_energy(square_mesh, build(square_domain))


def test_bump_potential_integrates_to_its_radial_integral(square_domain):
    center, radius, height = (0.5, 0.5), 0.3, 2.0
    bump = assembly.make_potential("bump", center=list(center), radius=radius, height=height)
    assert bump([center])[0] == height
    # zero at the radius and beyond it
    ring = [
        [0.5 + r * math.cos(t), 0.5 + r * math.sin(t)] for r in (0.3, 0.31, 0.7) for t in (0, 2)
    ]
    assert (bump(ring) == 0.0).all()
    # ∫ v0 = 1ᵀM1: the potential sampled at 12 points per element against
    # 2π ∫_0^R r v0(r) dr
    mesh = geometry.triangulate(square_domain, 0.04)
    _, M = assemble_energy_split(mesh, _cf(v0=bump))
    ones = np.ones(mesh.n_nodes)
    x, w = np.polynomial.legendre.leggauss(200)
    r = 0.5 * radius * (x + 1.0)
    v0 = height * np.exp(1.0 - radius**2 / (radius**2 - r**2))
    exact = math.pi * radius * float(w @ (r * v0))
    assert ones @ (M @ ones) == pytest.approx(exact, rel=1e-5)


def test_assembly_guards(square_mesh):
    indefinite = assembly.MatrixField(
        "broken", lambda pts: np.tile(np.diag([1.0, -1.0]), (len(pts), 1, 1))
    )
    with pytest.raises(AssemblyError, match="positive definite|ellipticity"):
        assemble_energy(square_mesh, _cf(a=indefinite))

    negative_v = assembly.ScalarField("bad-v", lambda pts: -np.ones(len(pts)))
    with pytest.raises(AssemblyError, match="negative"):
        assemble_energy(square_mesh, _cf(v0=negative_v))


def _nan_right_half(pts):
    """1 on the left half of the unit square, NaN on the right half."""
    return np.where(np.asarray(pts)[:, 0] > 0.5, np.nan, 1.0)


def _nan_diagonal(pts):
    a = np.zeros((len(pts), 2, 2))
    a[:, 0, 0] = a[:, 1, 1] = _nan_right_half(pts)
    return a


def _nan_matrix(pts):
    return _nan_right_half(pts)[:, None, None] * np.eye(2)


# Every comparison with NaN is false, so a guard that fails only on "x < bound"
# lets NaN samples through to the eigensolver.
@pytest.mark.parametrize(
    "coeff,message",
    [
        (_cf(a=assembly.MatrixField("nan-diagonal", _nan_diagonal)), "loses ellipticity"),
        (_cf(a=assembly.MatrixField("nan", _nan_matrix)), "not symmetric"),
        (_cf(v0=assembly.ScalarField("nan-v", _nan_right_half)), "negative or NaN"),
    ],
    ids=["matrix-diagonal", "matrix-full", "potential"],
)
def test_nan_samples_fail_the_guards_at_a_nan_point(square_mesh, coeff, message):
    with pytest.raises(AssemblyError, match=message) as exc:
        assemble_energy(square_mesh, coeff)
    x, y = map(float, re.search(r"at \[([^\]]+)\]", str(exc.value)).group(1).split(","))
    assert x > 0.5 and 0 < y < 1


def test_ellipticity_guard_squares_no_sample(square_mesh):
    # λ_min from halved entries: a huge SPD field assembles, its energy a
    # power-of-two multiple of the unit field's, and a huge negative entry
    # reports a finite λ_min
    big = 2.0**600
    A = assemble_energy(square_mesh, _cf(a=constant_matrix(big)))
    assert (A.data / big).tobytes() == assemble_energy(square_mesh, _cf()).data.tobytes()
    wrong = assembly.MatrixField("wrong", lambda pts: np.tile(np.diag([1.0, -1e300]), (len(pts), 1, 1)))
    with pytest.raises(AssemblyError, match=r"loses ellipticity .*\(lambda_min=-1\.000e\+300\)"):
        assemble_energy(square_mesh, _cf(a=wrong))


def test_pullback_preserves_energy_integrals():
    dom = geometry.make_domain("sawtooth-square")
    smap = geometry.build_straightening(dom, 0.125)
    src, img = smap.source, smap.image
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
    # the boundary stretch is a ratio of edge lengths, so a pulled-back weight
    # has no value at a single point (a zero-length edge)
    top = src.nodes[src.boundary_edges[0, :1]]
    with pytest.raises(AssemblyError, match="positive length"):
        pulled.rho(src.boundary_parent[:1], top, top)
