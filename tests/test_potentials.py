"""Boundary layer operators: closed-form panel integrals, the discrete Gauss
identity, circle spectra of the single layer and of the Neumann-to-Dirichlet
map, symmetry/adjointness structure, and the composition diagnostics."""

import dataclasses
import math

import numpy as np
import pytest

import oracles
from steklovlab import geometry
from steklovlab.potentials import (
    PANEL_BUDGET,
    PotentialsError,
    _mean_zero_basis,
    build_layer_operators,
    composition_probe,
    ds_vs_s_singulars,
    jump_relation_error,
    nd_operator,
    operator_to_text,
)


@pytest.fixture(scope="module")
def circle_op():
    dom = geometry.make_domain("regular-ngon", n=96, radius=1.0)
    return build_layer_operators(dom, 2, rescale_diameter=None)


@pytest.fixture(scope="module")
def square_op():
    return build_layer_operators(geometry.make_domain("square"), 64)


# ---------------------------------------------------------------------------
# panel construction and guards


def test_panel_budget_is_enforced():
    with pytest.raises(PotentialsError, match="budget"):
        build_layer_operators(geometry.make_domain("square"), PANEL_BUDGET // 4 + 1)
    with pytest.raises(PotentialsError, match="at least 1"):
        build_layer_operators(geometry.make_domain("square"), 0)


def test_rescale_diameter_must_sit_below_one():
    with pytest.raises(PotentialsError, match="rescale"):
        build_layer_operators(geometry.make_domain("square"), 4, rescale_diameter=1.5)


def test_default_rescale_keeps_capacity_sign(square_op):
    assert square_op.scale == pytest.approx(0.8 / math.sqrt(2.0), rel=1e-12)
    # single layer positive definite on mean-zero densities at this diameter
    Q = _mean_zero_basis(square_op)
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
    # every vertex turn on this polygon is below the corner threshold
    assert rep["binned"] == []


def test_gauss_identity_survives_corners(square_op):
    rep = jump_relation_error(square_op)
    assert rep["max_error"] < 1e-12
    assert len(rep["binned"]) > 0
    assert all(b["max_error"] < 1e-12 for b in rep["binned"])
    assert sum(b["count"] for b in rep["binned"]) == square_op.n


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
    raw = circle_op.raw("D")
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
        op = build_layer_operators(dom, 2, rescale_diameter=None)
        nd = nd_operator(op)
        expected = np.repeat(1.0 / np.arange(1, 7), 2)
        errs.append(np.abs(nd.eigenvalues[:12] - expected).max())
    assert errs[0] / errs[1] > 3.0


def test_neumann_to_dirichlet_rejects_singular_system():
    # D* = −½I cancels the ½I part, leaving ½I + D̂* at roundoff size
    op = build_layer_operators(geometry.make_domain("square"), 4)
    bad = dataclasses.replace(op, Dstar=-0.5 * np.eye(op.n))
    with pytest.raises(PotentialsError, match="near singular"):
        nd_operator(bad)


# ---------------------------------------------------------------------------
# structure: adjointness, symmetry, mean-zero basis


def test_adjoint_double_layer_is_the_transpose(square_op):
    assert np.array_equal(square_op.Dstar, square_op.D.T)


def test_square_symmetry_permutes_panels_invariantly(square_op):
    ppe = square_op.n // 4
    perm = np.roll(np.arange(square_op.n), -ppe)
    assert np.abs(square_op.S[np.ix_(perm, perm)] - square_op.S).max() < 1e-14
    assert np.abs(square_op.D[np.ix_(perm, perm)] - square_op.D).max() < 1e-14


def test_mean_zero_basis_is_orthonormal_and_kills_constants(square_op):
    Q = _mean_zero_basis(square_op)
    n = square_op.n
    assert Q.shape == (n, n - 1)
    assert np.abs(Q.T @ Q - np.eye(n - 1)).max() < 1e-12
    # the constant function has coefficients √ℓ in the orthonormal basis
    assert np.abs(Q.T @ square_op.sqrt_length).max() < 1e-10


def test_square_top_pair_is_degenerate(square_op):
    nd = nd_operator(square_op)
    assert nd.eigenvalues[0] == pytest.approx(nd.eigenvalues[1], rel=1e-10)


# ---------------------------------------------------------------------------
# composition diagnostics


def test_composition_probe_small_separation_suppression(square_op):
    pr = composition_probe(square_op, 100_000, decades=1.2, seed=4)
    prof = pr.smooth
    assert np.all(np.diff(prof.r) > 0)
    assert prof.count.sum() > 50_000
    # composed kernel is subsingular: normalized magnitude vanishes toward
    # small separation instead of approaching a constant
    assert prof.magnitude[0] < 0.25 * prof.magnitude[-1]
    assert pr.corner is not None and pr.corner.label == "corner"
    assert pr.metadata["decades_spanned"] >= 1.2
    csv = prof.to_csv().strip().splitlines()
    assert csv[0] == "r,normalized_magnitude,bin_count"
    assert len(csv) == 1 + len(prof.r)


def test_composition_probe_smooth_boundary_has_no_corner_class(circle_op):
    pr = composition_probe(circle_op, 50_000, decades=1.0, seed=4)
    assert pr.corner is None


def test_composition_probe_is_stable_under_budget_doubling(square_op):
    a = composition_probe(square_op, 100_000, decades=1.2, seed=4)
    b = composition_probe(square_op, 200_000, decades=1.2, seed=4)
    m = min(len(a.smooth.magnitude), len(b.smooth.magnitude))
    drift = np.abs(a.smooth.magnitude[:m] - b.smooth.magnitude[:m]).max()
    assert drift < 0.02 * a.smooth.magnitude.max()


def test_composition_probe_requires_enough_decades(square_op):
    with pytest.raises(PotentialsError, match="decades"):
        composition_probe(square_op, 1000, decades=5.0)


def test_composed_operator_is_strictly_smoother(square_op):
    r = ds_vs_s_singulars(square_op, 40)
    assert r["ratio"][0] < 1.0
    assert np.median(r["ratio"][-10:]) < 0.1 * np.median(r["ratio"][:10])
    with pytest.raises(PotentialsError, match="singular values"):
        ds_vs_s_singulars(square_op, square_op.n + 1)


# ---------------------------------------------------------------------------
# export


def test_operator_text_round_trip(circle_op):
    text = operator_to_text(circle_op, "S")
    lines = text.strip().splitlines()
    assert lines[0] == "steklovlab-dense 1 S"
    rows, cols = map(int, lines[1].split())
    assert (rows, cols) == (circle_op.n, circle_op.n)
    parsed = np.array([[float(x) for x in ln.split()] for ln in lines[2:]])
    assert np.array_equal(parsed, circle_op.S)
