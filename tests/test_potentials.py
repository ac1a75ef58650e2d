"""Boundary layer operators: closed-form panel integrals, the discrete Gauss
identity, circle spectra of the single layer and of the Neumann-to-Dirichlet
map, the square's ND spectrum against separation of variables, symmetry
structure, the row-blocked fill, its pinned digests and the per-panel
oracle it must match, the tiled transpose sums, the mean-zero
projection, the in-place ND operator on scipy's kernels, and the fill's
worker threads."""

import ast
import dataclasses
import functools
import hashlib
import inspect
import math
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg

import oracles
from steklovlab import geometry, potentials
from steklovlab.potentials import (
    PANEL_BUDGET,
    PotentialsError,
    build_layer_operators,
    jump_relation_error,
    nd_operator,
)


@pytest.fixture(scope="module")
def circle_op():
    dom = geometry.make_domain("regular-ngon", n=96, radius=1.0)
    return build_layer_operators(dom, 2)


@pytest.fixture(scope="module")
def square_op():
    return build_layer_operators(geometry.make_domain("square"), 64)


def householder_q(op):
    """Explicit mean-zero basis: columns 1.. of the reflection that maps
    √ℓ/‖√ℓ‖ onto the first unit vector."""
    w = op.sqrt_length / np.linalg.norm(op.sqrt_length)
    u = w - np.eye(op.n)[0]
    return (np.eye(op.n) - 2.0 * np.outer(u, u) / (u @ u))[:, 1:]


# ---------------------------------------------------------------------------
# panel construction and guards


def test_panel_budget_is_enforced():
    with pytest.raises(PotentialsError, match="budget"):
        build_layer_operators(geometry.make_domain("square"), PANEL_BUDGET // 4 + 1)
    with pytest.raises(PotentialsError, match="at least 1"):
        build_layer_operators(geometry.make_domain("square"), 0)
    for bad in (2.5, 3.0, True, "4"):
        with pytest.raises(PotentialsError, match="must be an integer"):
            build_layer_operators(geometry.make_domain("square"), bad)
    assert len(build_layer_operators(geometry.make_domain("square"), np.int64(2)).panels) == 8


@pytest.mark.parametrize("scale", [1.0, 0.37])
def test_panels_split_every_segment_in_order(scale):
    # reference: each segment cut at the fractions k/p, one segment at a time
    dom = geometry.PolygonDomain(geometry.make_domain("koch-prefractal", level=2).vertices * scale)
    p = 3
    pa, pb = dom.segment_points()
    t = np.arange(p + 1) / p
    cuts = [pa[i] + t[:, None] * (pb[i] - pa[i]) for i in range(dom.n_segments)]
    start = np.vstack([c[:-1] for c in cuts])
    end = np.vstack([c[1:] for c in cuts])
    panels = potentials._build_panels(dom, p)
    assert np.array_equal(panels.mid, 0.5 * (start + end))
    assert np.array_equal(panels.length, np.hypot(*(end - start).T))
    assert np.array_equal(panels.normal, np.repeat(dom.segment_normals(), p, axis=0))


def test_nd_map_is_scale_covariant():
    # On mean-zero densities the log kernel's −(1/2π)·log c shift under x ↦ c·x
    # integrates to zero, so Ŝ stays positive definite at any logarithmic
    # capacity and the ND map scales by c; D is scale invariant.
    cases = [
        ("square", {}, 16),
        ("koch-prefractal", {"level": 2}, 2),
        ("regular-ngon", {"n": 96, "radius": 1.0}, 2),
    ]
    for name, params, ppe in cases:
        dom = geometry.make_domain(name, **params)
        ref = nd_operator(build_layer_operators(dom, ppe))
        for c in (0.37, 10.0):
            op = build_layer_operators(geometry.PolygonDomain(dom.vertices * c), ppe)
            nd = nd_operator(op)
            assert nd.eigenvalues == pytest.approx(c * ref.eigenvalues, rel=1e-12), (name, c)
            u, k = potentials._reflection(op)
            assert np.linalg.eigvalsh(potentials._project(op.S, u, k)).min() > 0, (name, c)
            assert nd.condition == pytest.approx(ref.condition, rel=1e-12), (name, c)


@pytest.mark.parametrize("k", [-200, 200])
def test_nd_eigenvalues_scale_with_the_domain_at_the_span_range_ends(k):
    unit = nd_operator(build_layer_operators(geometry.make_domain("square"), 16)).eigenvalues
    scaled = build_layer_operators(geometry.make_domain("square", side=2.0**k), 16)
    eigs = nd_operator(scaled).eigenvalues
    assert np.isfinite(eigs).all()
    np.testing.assert_allclose(eigs, 2.0**k * unit, rtol=1e-12, atol=0)


# ---------------------------------------------------------------------------
# closed-form self-integral of the log kernel over a straight panel


def test_single_layer_diagonal_matches_closed_form(circle_op):
    ell = circle_op.panels.length
    expected = -ell * (np.log(ell) - 1.5) / (2.0 * math.pi)
    assert np.abs(np.diag(circle_op.S) - expected).max() < 1e-15


def test_single_layer_offdiagonal_matches_brute_quadrature(circle_op):
    # Galerkin entry between two well-separated panels, against plain
    # two-dimensional Gauss quadrature of the log kernel
    i, j = 0, circle_op.n // 3
    p = circle_op.panels
    gx, gw = np.polynomial.legendre.leggauss(12)
    xi = p.mid[i][None, :] + 0.5 * p.length[i] * gx[:, None] * p.tangent[i][None, :]
    yj = p.mid[j][None, :] + 0.5 * p.length[j] * gx[:, None] * p.tangent[j][None, :]
    diff = xi[:, None, :] - yj[None, :, :]
    K = -np.log(np.hypot(diff[..., 0], diff[..., 1])) / (2.0 * math.pi)
    val = (
        0.25
        * p.length[i]
        * p.length[j]
        * np.einsum("q,r,qr->", gw, gw, K)
    )
    got = circle_op.S[i, j] * math.sqrt(p.length[i] * p.length[j])
    assert got == pytest.approx(val, rel=1e-10)


# ---------------------------------------------------------------------------
# discrete Gauss identity: D applied to the constant density equals −1/2


def test_gauss_identity_on_smooth_boundary(circle_op):
    rep = jump_relation_error(circle_op)
    assert rep["max_error"] < 1e-12


def test_gauss_identity_survives_corners(square_op):
    rep = jump_relation_error(square_op)
    assert rep["max_error"] < 1e-12


@pytest.mark.parametrize("degrees", [0.5, 5.0, 15.0])
def test_gauss_identity_holds_in_thin_wedges(degrees):
    # near the tip each midpoint sees the other side at a grazing angle;
    # evaluating both ends of every panel on their own read 1.1e-12 at 0.5°
    tip = math.radians(degrees)
    dom = geometry.PolygonDomain(
        np.array([[0.0, 0.0], [1.0, 0.0], [math.cos(tip), math.sin(tip)]])
    )
    rep = jump_relation_error(build_layer_operators(dom, 256))
    assert rep["max_error"] <= 2e-13


# ---------------------------------------------------------------------------
# circle spectra


def test_circle_single_layer_spectrum(circle_op):
    eigs = np.sort(np.linalg.eigvalsh(circle_op.S))[::-1]
    expected = [oracles.circle_single_layer_eigenvalue(k) for k in (1, 1, 2, 2, 3, 3)]
    assert eigs[:6] == pytest.approx(expected, rel=2e-3)
    with pytest.raises(ValueError):
        oracles.circle_single_layer_eigenvalue(0)


def test_circle_double_layer_entry_vanishes_like_the_curvature_kernel(circle_op):
    # the continuous double-layer kernel on a unit circle is the constant
    # −1/(4π); a far panel entry is that times the panel length
    s = circle_op.sqrt_length
    raw = (circle_op.D / s[:, None]) * s[None, :]  # acts on collocation values
    i, j = 0, circle_op.n // 2
    assert raw[i, j] == pytest.approx(
        -circle_op.panels.length[j] / (4.0 * math.pi), rel=1e-3
    )


def test_circle_neumann_to_dirichlet_spectrum(circle_op):
    nd = nd_operator(circle_op)
    expected = [oracles.circle_nd_eigenvalue(k) for k in (1, 1, 2, 2, 3, 3)]
    assert nd.eigenvalues[:6] == pytest.approx(expected, rel=2e-3)
    assert nd.route_gap < 1e-12
    assert nd.asymmetry < 1e-2
    assert nd.condition < 10.0


def test_neumann_to_dirichlet_converges_at_second_order():
    errs = []
    for n in (96, 192):
        dom = geometry.make_domain("regular-ngon", n=n, radius=1.0)
        op = build_layer_operators(dom, 2)
        nd = nd_operator(op)
        expected = np.repeat(1.0 / np.arange(1, 7), 2)
        errs.append(np.abs(nd.eigenvalues[:12] - expected).max())
    assert errs[0] / errs[1] > 3.0


def test_neumann_to_dirichlet_converges_on_the_square():
    # pairs 1-10 against separation of variables: ND eigenvalues are 1/sigma;
    # the corners slow the order to about 1.6 (3.4e-3 at 64 panels per edge,
    # 1.1e-3 at 128)
    want = 1.0 / oracles.square_steklov_eigenvalues(11)[1:]
    errs = []
    for p, bound in ((64, 7e-3), (128, 2.2e-3)):
        nd = nd_operator(build_layer_operators(geometry.make_domain("square"), p))
        errs.append(np.max(np.abs(nd.eigenvalues[:10] - want) / want))
        assert errs[-1] < bound
    assert errs[1] < errs[0] / 2.5


def test_neumann_to_dirichlet_rejects_singular_system():
    # D* = Dᵀ = −½I cancels the ½I part, leaving ½I + D̂* at roundoff size
    op = build_layer_operators(geometry.make_domain("square"), 4)
    bad = dataclasses.replace(op, D=-0.5 * np.eye(op.n))
    with warnings.catch_warnings():  # the typed error, and no warning before it
        warnings.simplefilter("error")
        with pytest.raises(PotentialsError, match="near singular"):
            nd_operator(bad)


# ---------------------------------------------------------------------------
# structure: symmetry, mean-zero basis


def test_square_symmetry_permutes_panels_invariantly(square_op):
    ppe = square_op.n // 4
    perm = np.roll(np.arange(square_op.n), -ppe)
    assert np.abs(square_op.S[np.ix_(perm, perm)] - square_op.S).max() < 1e-14
    assert np.abs(square_op.D[np.ix_(perm, perm)] - square_op.D).max() < 1e-14


def test_mean_zero_basis_is_orthonormal_and_kills_constants(square_op):
    Q = householder_q(square_op)
    n = square_op.n
    assert Q.shape == (n, n - 1)
    assert np.abs(Q.T @ Q - np.eye(n - 1)).max() < 1e-12
    # the constant function has coefficients √ℓ in the orthonormal basis
    assert np.abs(Q.T @ square_op.sqrt_length).max() < 1e-10


def test_square_top_pair_is_degenerate(square_op):
    nd = nd_operator(square_op)
    assert nd.eigenvalues[0] == pytest.approx(nd.eigenvalues[1], rel=1e-10)


def test_reflection_projection_matches_explicit_householder(square_op):
    u, c = potentials._reflection(square_op)
    Q = householder_q(square_op)
    for M in (square_op.S, square_op.D.T):
        assert np.abs(potentials._project(M, u, c) - Q.T @ M @ Q).max() <= 1e-13
    # the constant density √ℓ is annihilated from either side
    x = np.random.default_rng(0).standard_normal(square_op.n)
    s = square_op.sqrt_length
    assert np.abs(potentials._project(np.outer(s, x), u, c)).max() <= 1e-13
    assert np.abs(potentials._project(np.outer(x, s), u, c)).max() <= 1e-13


def test_condition_estimate_matches_the_f2py_wrapper(square_op):
    # scipy's dgecon on the same factor, to the four digits that are reported
    u, c = potentials._reflection(square_op)
    A = 0.5 * np.eye(square_op.n - 1) + potentials._project(square_op.D.T, u, c)
    anorm = float(np.abs(A).sum(axis=0).max())
    lu, _ = scipy.linalg.lu_factor(A)
    rcond, info = scipy.linalg.lapack.dgecon(lu, anorm, norm="1")
    assert info == 0
    assert potentials._condition(lu, anorm) == float(f"{1.0 / rcond:.4g}")
    assert nd_operator(square_op).condition == float(f"{1.0 / rcond:.4g}")


def test_condition_estimate_is_one_value_under_heap_churn():
    # OpenBLAS rounds dgecon's last bits with the alignment of the work array
    # that scipy's wrapper allocates; blocks of random size kept alive between
    # calls move that array around the heap
    n = 300
    rng = np.random.default_rng(0)
    A = 0.5 * np.eye(n) + rng.standard_normal((n, n)) / (4.0 * math.sqrt(n))
    anorm = float(np.abs(A).sum(axis=0).max())
    lu, _ = scipy.linalg.lu_factor(A)
    values, held = set(), []
    for _ in range(100):
        values.add(potentials._condition(lu, anorm))
        held.append(np.empty(int(rng.integers(1, 4096))))
    assert len(values) == 1, values


def test_nd_operator_is_bitwise_repeatable(square_op):
    first, second = nd_operator(square_op), nd_operator(square_op)
    assert np.array_equal(first.eigenvalues, second.eigenvalues)
    assert first.condition == second.condition


def test_in_place_nd_operator_matches_the_out_of_place_formula(square_op):
    # the routes as written out with separate temporaries: the in-place
    # arithmetic and layouts of nd_operator must reproduce them bitwise
    u, c = potentials._reflection(square_op)
    Shat = potentials._project(square_op.S, u, c)
    Dhat = potentials._project(square_op.D.T, u, c)
    A = 0.5 * np.eye(Dhat.shape[0]) + Dhat
    factor = scipy.linalg.lu_factor(A)
    route1 = scipy.linalg.lu_solve(factor, Shat.T, trans=1).T
    # the split form 2Ŝ − 2ŜD̂*A⁻¹ on the probe Z, with D̂*A⁻¹ = A⁻¹D̂*;
    # nd_operator holds D̂* column-major
    Z = np.cos(np.outer(np.arange(1, A.shape[0] + 1), np.arange(1, 5)))
    W = np.asfortranarray(Dhat) @ Z
    probe1 = route1 @ Z
    probe2 = 2.0 * (Shat @ (Z - scipy.linalg.lu_solve(factor, W)))
    denom = np.linalg.norm(route1)
    sym = 0.5 * (route1 + route1.T)
    nd = nd_operator(square_op)
    assert np.array_equal(nd.matrix, sym)
    assert np.array_equal(nd.eigenvalues, np.linalg.eigvalsh(sym)[::-1])
    assert nd.route_gap == float(np.linalg.norm(probe1 - probe2) / np.linalg.norm(probe1))
    assert nd.asymmetry == float(np.linalg.norm(route1 - route1.T) / denom)
    anorm = max(float(np.abs(A).sum(axis=0).max()), 0.5)
    assert nd.condition == potentials._condition(factor[0], anorm)


def test_nd_operator_runs_on_scipy_kernels_alone(square_op, monkeypatch):
    # numpy's linalg must not be reached: its OpenBLAS pool is not scipy's
    def refuse(*args, **kwargs):
        raise AssertionError("numpy.linalg called")

    for name in ("eigvalsh", "eigh", "norm"):
        monkeypatch.setattr(np.linalg, name, refuse)
    nd_operator(square_op)
    # numpy's @ cannot be patched away: read the stage's source instead
    for fn in (potentials._reflection, potentials._project, nd_operator):
        tree = ast.parse(inspect.getsource(fn))
        for node in ast.walk(tree):
            assert not isinstance(node, ast.MatMult), fn.__name__
            assert not (
                isinstance(node, ast.Attribute)
                and node.attr == "linalg"
                and isinstance(node.value, ast.Name)
                and node.value.id == "np"
            ), fn.__name__


def test_route_check_catches_a_perturbed_factor(square_op, monkeypatch):
    # one LU entry off by a relative 1e-9 breaks the identity that the probe
    # checks; both routes share the factor, so only the split form sees it
    real = scipy.linalg.lu_factor

    def perturbed(a, *args, **kwargs):
        lu, piv = real(a, *args, **kwargs)
        k = lu.shape[0] // 2
        lu[k, k] *= 1.0 + 1e-9
        return lu, piv

    monkeypatch.setattr(scipy.linalg, "lu_factor", perturbed)
    with pytest.raises(PotentialsError, match="ND evaluation routes disagree"):
        nd_operator(square_op)


def test_route_check_catches_a_nan_gap():
    # a NaN in S makes the probe gap NaN, which once passed the check and
    # ended in an untyped LinAlgError from the eigensolver
    op = build_layer_operators(geometry.make_domain("square"), 16)
    op.S[3, 5] = math.nan
    with pytest.raises(PotentialsError, match="ND evaluation routes disagree"):
        nd_operator(op)


def test_nd_operator_memory_is_bounded():
    op = build_layer_operators(geometry.make_domain("square"), 128)
    n = op.n
    peak = oracles.traced_peak_mib(nd_operator, op) * 2**20
    # Ŝ and A = ½I + D̂* factored in place, plus thin probe products and bands
    assert peak <= 2.5 * n * n * 8, peak / (n * n * 8)


def test_jump_relation_error_memory_is_bounded():
    op = build_layer_operators(geometry.make_domain("square"), 128)
    n = op.n
    peak = oracles.traced_peak_mib(jump_relation_error, op) * 2**20
    # row blocks of FILL_BLOCK entries, not a scaled copy of D
    assert peak <= 0.25 * n * n * 8, peak / (n * n * 8)


# ---------------------------------------------------------------------------
# row-blocked fill


def test_fill_blocking_leaves_layers_bitwise_unchanged(monkeypatch):
    # 608 panels: the default budget takes two blocks
    dom = geometry.make_domain("sawtooth-square")
    ref = build_layer_operators(dom, 32)
    assert potentials.FILL_BLOCK // ref.n < ref.n
    for budget in (1, ref.n * ref.n):  # one row per block; the whole matrix
        monkeypatch.setattr(potentials, "FILL_BLOCK", budget)
        op = build_layer_operators(dom, 32)
        assert np.array_equal(op.S, ref.S), budget
        assert np.array_equal(op.D, ref.D), budget


def _counted_thread_starts(monkeypatch):
    started = []
    start = threading.Thread.start

    def counting(self):
        started.append(self)
        start(self)

    monkeypatch.setattr(threading.Thread, "start", counting)
    return started


@pytest.mark.parametrize("cpus", [None, 2, 16])
def test_fill_workers_leave_layers_bitwise_unchanged(cpus, monkeypatch):
    # 608 panels in blocks of 3 rows: 203 blocks, the last one of 2 rows, dealt
    # to more than one worker; the one-block build is the reference
    dom = geometry.make_domain("sawtooth-square")
    monkeypatch.setattr(potentials, "FILL_BLOCK", 608 * 608)
    ref = build_layer_operators(dom, 32)
    if cpus is not None:
        monkeypatch.setattr(potentials, "_available_cpus", lambda: cpus)
    cpus = potentials._available_cpus()
    monkeypatch.setattr(potentials, "FILL_BLOCK", 3 * 608)
    assert 608 % 3 == 2
    # a worker's temporaries for 3 × 608 entries are 0.08 of a 608 × 608
    # matrix, and the workers share one such matrix: at most eleven of them
    assert 608 // (3 * potentials._BLOCK_TEMPS) == 11
    started = _counted_thread_starts(monkeypatch)
    op = build_layer_operators(dom, 32)
    assert len(started) == min(cpus, 11) - 1  # the calling thread is the first worker
    assert np.array_equal(op.S, ref.S)
    assert np.array_equal(op.D, ref.D)


@pytest.mark.parametrize("where", ["worker", "caller"])
def test_fill_error_reaches_the_caller_and_joins_the_workers(where, monkeypatch):
    monkeypatch.setattr(potentials, "_available_cpus", lambda: 2)
    monkeypatch.setattr(potentials, "FILL_BLOCK", 3 * 608)
    primitive = potentials._primitive

    def failing(*args):
        in_caller = threading.current_thread() is threading.main_thread()
        if in_caller == (where == "caller"):
            raise RuntimeError(f"{where} failed")
        return primitive(*args)

    monkeypatch.setattr(potentials, "_primitive", failing)
    before = threading.active_count()
    started = _counted_thread_starts(monkeypatch)
    with pytest.raises(RuntimeError, match=f"{where} failed"):
        build_layer_operators(geometry.make_domain("sawtooth-square"), 32)
    assert len(started) == 1
    assert threading.active_count() == before


def test_block_temporaries_fit_their_budget(monkeypatch):
    # one worker filling one block of all 608 rows: beside S and D, the
    # block's temporaries must stay within the _BLOCK_TEMPS doubles per entry
    # that the worker count is sized by
    monkeypatch.setattr(potentials, "_available_cpus", lambda: 1)
    monkeypatch.setattr(potentials, "FILL_BLOCK", 608 * 608)
    panels = potentials._build_panels(geometry.make_domain("sawtooth-square"), 32)
    n = len(panels)
    peak = oracles.traced_peak_mib(potentials._fill, panels) * 2**20
    assert peak <= (2 + potentials._BLOCK_TEMPS) * n * n * 8, peak / (n * n * 8)


def test_one_block_fill_starts_no_thread(monkeypatch):
    monkeypatch.setattr(potentials, "_available_cpus", lambda: 4)
    started = _counted_thread_starts(monkeypatch)
    op = build_layer_operators(geometry.make_domain("square"), 16)
    assert potentials.FILL_BLOCK // op.n >= op.n  # one block
    assert started == []


def _catalog_layers(name, ppe, to_diameter=0.8, **params):
    """Layers of a catalog domain, first scaled to diameter ``to_diameter``
    (the largest vertex distance) unless it is None; the digests below were
    pinned on domains scaled so."""
    v = geometry.make_domain(name, **params).vertices
    if to_diameter is not None:
        d2 = np.sum((v[:, None, :] - v[None, :, :]) ** 2, axis=2)
        v = v * (to_diameter / float(np.sqrt(d2.max())))
    op = build_layer_operators(geometry.PolygonDomain(v), ppe)
    return op.S, op.D


def _touching_pair_panels():
    # panel 1 starts at x = g, the outer Gauss point of panel 0; each panel is
    # a segment of one
    g = potentials._GAUSS_X[3]
    return potentials.PanelSet(
        mid=np.array([[0.0, 0.0], [2.0 * g, 0.0]]),
        length=np.array([2.0, 2.0 * g]),
        tangent=np.array([[1.0, 0.0], [1.0, 0.0]]),
        normal=np.array([[0.0, -1.0], [0.0, -1.0]]),
        nodes=np.array([[[-1.0, 0.0], [1.0, 0.0]], [[g, 0.0], [3.0 * g, 0.0]]]),
    )


def _touching_pair_layers():
    return potentials._fill(_touching_pair_panels())


# Layers and the SHA-256 of S.tobytes() and D.tobytes(): any change to the
# fill's arithmetic or its order of operations moves them.  The catalog cases
# hold collinear panel pairs (v = 0); the touching pair puts a Gauss point on
# another panel's endpoint (r² = 0), which no simple polygon does.
LAYER_DIGESTS = {
    "square-32": (
        functools.partial(_catalog_layers, "square", 32),
        "78501cf80763dc65885d069734ec3991d313403e38ea34d5c35a4cd41e30cf8a",
        "15519d82f1b55b61bc9c5248ae76672d244cfa40b60886a687eb0bf1d9205b32",
    ),
    "sawtooth-32": (
        functools.partial(_catalog_layers, "sawtooth-square", 32),
        "0347c300b683907d2e1968ad64757d761c9f5eac39b9c525f281cfbbfdd64e9d",
        "a3ecb98cc46c261d6457e2561e6edb044191b55ca3662ff2bd6cdef1e7db39d6",
    ),
    "koch-l2-8": (
        functools.partial(_catalog_layers, "koch-prefractal", 8, level=2),
        "008b89f2abd896b44a78760fd70392d4e2b6e1280ac63dd52f8c29e3af2f030e",
        "4eeae0070472201e9a7f47bd438ae1511a32b6a8f5dac61bac038990561d15fe",
    ),
    "ngon96-2-unscaled": (
        functools.partial(_catalog_layers, "regular-ngon", 2, to_diameter=None, n=96, radius=1.0),
        "edc41c6a02330420edaf5d8572f1a13b7373819c18c9b486243feb3fd9b12242",
        "3b60fab8b6175c26fce7175e512ab6eedba00fcc107c70190baea700faba4635",
    ),
    "touching-pair": (
        _touching_pair_layers,
        "bb2fdbe41c7c99d01ac0b797a350392b0f53c283f0392b05588378d1470e82cd",
        "66687aadf862bd776c8fc18b8e9f8e20089714856ee233b3902a591d0d5f2925",
    ),
}


@pytest.mark.parametrize("case", sorted(LAYER_DIGESTS))
def test_layer_matrices_match_golden_digests(case):
    layers, *expected = LAYER_DIGESTS[case]
    S, D = layers()
    assert np.isfinite(S).all() and np.isfinite(D).all()
    assert [hashlib.sha256(M.tobytes()).hexdigest() for M in (S, D)] == expected


# the fill against the per-panel closed forms (tests/oracles.py), which
# evaluate both ends of every panel on their own; bounds fixed beforehand
ORACLE_DOMAINS = {
    "square-64": ("square", {}, 64),
    "lshape-32": ("lshape", {}, 32),
    "ngon96-2": ("regular-ngon", {"n": 96, "radius": 1.0}, 2),
    "koch-l2-8": ("koch-prefractal", {"level": 2}, 8),
    "sawtooth-32": ("sawtooth-square", {}, 32),
}


def _assert_layers_match_oracle(panels, S, D):
    S0, D0 = oracles.panel_layer_matrices(panels.mid, panels.length, panels.tangent, panels.normal)
    for got, ref in ((S, S0), (D, D0)):
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()
    return S0, D0


@pytest.mark.parametrize("case", sorted(ORACLE_DOMAINS))
def test_fill_matches_the_per_panel_oracle(case):
    name, params, ppe = ORACLE_DOMAINS[case]
    op = build_layer_operators(geometry.make_domain(name, **params), ppe)
    S0, D0 = _assert_layers_match_oracle(op.panels, op.S, op.D)
    ref = nd_operator(dataclasses.replace(op, S=S0, D=D0)).eigenvalues
    np.testing.assert_allclose(nd_operator(op).eigenvalues, ref, rtol=1e-11, atol=0)


def test_fill_matches_the_per_panel_oracle_where_a_gauss_point_is_a_node():
    panels = _touching_pair_panels()
    _assert_layers_match_oracle(panels, *potentials._fill(panels))


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_tiled_transpose_sum_is_the_untiled_sum_bitwise(sign):
    # 300 rows in tiles of 128: two whole tiles and a part on each axis
    assert math.isqrt(potentials.FILL_BLOCK) == 128
    M = np.random.default_rng(1).standard_normal((300, 300))
    want = np.add(M, M.T) if sign > 0 else np.subtract(M, M.T)
    out = np.empty_like(M)
    potentials._add_transpose(M, out, sign)
    assert np.array_equal(out, want)
    potentials._add_transpose(M, M, sign)  # in place
    assert np.array_equal(M, want)


@pytest.mark.parametrize("ppe", [256, 512])
def test_layer_build_peak_is_three_matrices(ppe):
    dom = geometry.make_domain("square")
    tracemalloc.start()
    try:
        op = build_layer_operators(dom, ppe)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    n = op.n
    # S, D and the copy of Sᵀ that the in-place symmetrization buffers; the
    # cache-sized fill blocks are a small fraction of one n × n matrix
    assert peak <= 3.5 * n * n * 8, peak / (n * n * 8)


@pytest.mark.parametrize("ppe", [256, 512])
def test_layer_build_peak_does_not_grow_with_the_cpu_count(ppe, monkeypatch):
    # the fill workers' temporaries share one n × n budget, so a host with
    # many CPUs keeps the three-matrix peak of test_layer_build_peak_is_three_matrices
    monkeypatch.setattr(potentials, "_available_cpus", lambda: 64)
    dom = geometry.make_domain("square")
    tracemalloc.start()
    try:
        op = build_layer_operators(dom, ppe)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    n = op.n
    assert peak <= 3.5 * n * n * 8, peak / (n * n * 8)


def test_layer_fill_memory_is_bounded():
    dom = geometry.make_domain("square")
    tracemalloc.start()
    try:
        op = build_layer_operators(dom, 256)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    n = op.n
    assert n == 1024
    # the operator itself holds 2·n² doubles; the fill blocks add a bounded few
    assert peak <= 20 * n * n * 8, peak / (n * n * 8)
