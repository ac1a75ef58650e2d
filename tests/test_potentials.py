"""Boundary layer operators: closed-form panel integrals, the discrete Gauss
identity, circle spectra of the single layer and of the Neumann-to-Dirichlet
map, symmetry structure, the row-blocked fill, the mean-zero projection and
the in-place ND operator."""

import dataclasses
import math
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
    return build_layer_operators(dom, 2, rescale=False)


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


def test_rescale_diameter_must_sit_below_one(circle_op):
    # the logarithmic capacity condition behind the default rescaling
    assert 0 < potentials.RESCALE_DIAMETER < 1
    assert circle_op.scale == 1.0  # built with rescale=False


def test_default_rescale_keeps_capacity_sign(square_op):
    assert square_op.scale == pytest.approx(0.8 / math.sqrt(2.0), rel=1e-12)
    # single layer positive definite on mean-zero densities at this diameter
    Q = householder_q(square_op)
    eigs = np.linalg.eigvalsh(Q.T @ square_op.S @ Q)
    assert eigs.min() > 0


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
        op = build_layer_operators(dom, 2, rescale=False)
        nd = nd_operator(op)
        expected = np.repeat(1.0 / np.arange(1, 7), 2)
        errs.append(np.abs(nd.eigenvalues[:12] - expected).max())
    assert errs[0] / errs[1] > 3.0


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
    # the ctypes call reaches the same LAPACK routine with the same arguments
    u, c = potentials._reflection(square_op)
    A = 0.5 * np.eye(square_op.n - 1) + potentials._project(square_op.D.T, u, c)
    anorm = float(np.abs(A).sum(axis=0).max())
    lu, _ = scipy.linalg.lu_factor(A)
    rcond, info = scipy.linalg.lapack.dgecon(lu, anorm, norm="1")
    assert info == 0
    assert potentials._condition(lu, anorm) == pytest.approx(1.0 / rcond, rel=1e-12)
    assert nd_operator(square_op).condition == pytest.approx(1.0 / rcond, rel=1e-12)


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
    route2 = 2.0 * Shat - 2.0 * scipy.linalg.lu_solve(factor, (Shat @ Dhat).T, trans=1).T
    denom = np.linalg.norm(route1)
    sym = 0.5 * (route1 + route1.T)
    nd = nd_operator(square_op)
    assert np.array_equal(nd.matrix, sym)
    assert np.array_equal(nd.eigenvalues, np.linalg.eigvalsh(sym)[::-1] / square_op.scale)
    assert nd.route_gap == float(np.linalg.norm(route1 - route2) / denom)
    assert nd.asymmetry == float(np.linalg.norm(route1 - route1.T) / denom)
    anorm = max(float(np.abs(A).sum(axis=0).max()), 0.5)
    assert nd.condition == potentials._condition(factor[0], anorm)


def test_nd_operator_memory_is_bounded():
    op = build_layer_operators(geometry.make_domain("square"), 128)
    n = op.n
    tracemalloc.start()
    try:
        nd_operator(op)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # Ŝ, Ŝ D̂* and A = ½I + D̂* factored in place, plus one n × n temporary
    assert peak <= 5 * n * n * 8, peak / (n * n * 8)


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
