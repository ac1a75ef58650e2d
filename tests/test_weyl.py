"""Asymptotic-coefficient algebra: the planar co-metric determinant det a
against the oracle's tangent-basis construction of Θ′, the oracle's Θ
invariants, the branch densities α± (per item and over stacks), closed-form
boundary integrals on catalog domains, pinned bits of the boundary quadrature,
and the symbol-integral cross-check that ties s·β to the dimensionless
constant 1/2."""

import hashlib
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.polynomial.legendre import leggauss

import oracles
from oracles import beta, tangent_basis, theta_matrix, theta_prime
from steklovlab import assembly, geometry, weyl
from steklovlab.weyl import WeylError, _densities, _planar_det, weyl_coefficient


def _spd(entries):
    """Build an SPD matrix L·Lᵀ from lower-triangular entries with the
    diagonal bounded away from zero."""
    d = {1: 1, 3: 2, 6: 3}[len(entries)]
    L = np.zeros((d, d))
    idx = 0
    for i in range(d):
        for j in range(i + 1):
            L[i, j] = entries[idx] if j < i else 0.5 + abs(entries[idx])
            idx += 1
    return L @ L.T


spd2 = st.lists(st.floats(-2.0, 2.0), min_size=3, max_size=3).map(_spd)
spd3 = st.lists(st.floats(-2.0, 2.0), min_size=6, max_size=6).map(_spd)
angles = st.floats(0.0, 2.0 * math.pi)


def _unit(theta):
    return np.array([math.cos(theta), math.sin(theta)])


# ---------------------------------------------------------------------------
# Θ algebra (the oracle's construction) and the closed form det Θ′


@given(spd2, angles)
@settings(max_examples=60, deadline=None)
def test_theta_is_symmetric_psd_and_annihilates_the_normal(a, th):
    n = _unit(th)
    T = theta_matrix(a, n)
    assert np.allclose(T, T.T, atol=1e-12)
    assert np.abs(T @ n).max() < 1e-10 * (1 + np.abs(T).max())
    assert np.linalg.eigvalsh(T).min() > -1e-10 * (1 + np.abs(T).max())


@given(spd3, st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3))
@settings(max_examples=40, deadline=None)
def test_theta_annihilates_normal_in_three_dimensions(a, n):
    n = np.asarray(n)
    if np.linalg.norm(n) < 0.3:
        n = n + np.array([0.0, 0.0, 1.0])
    T = theta_matrix(a, n)
    assert np.abs(T @ n).max() < 1e-9 * (1 + np.abs(T).max()) * np.linalg.norm(n)


@given(angles)
@settings(max_examples=40, deadline=None)
def test_tangent_basis_is_orthonormal_and_tangent(th):
    n = _unit(th)
    P = tangent_basis(n)
    assert P.shape == (2, 1)
    assert abs(P[:, 0] @ n) < 1e-12
    assert abs(np.linalg.norm(P[:, 0]) - 1.0) < 1e-12


def test_tangent_basis_three_dimensional_and_zero_normal():
    n = np.array([0.3, -0.4, 0.8])
    P = tangent_basis(n)
    assert P.shape == (3, 2)
    assert np.allclose(P.T @ P, np.eye(2), atol=1e-12)
    assert np.abs(P.T @ n).max() < 1e-12
    with pytest.raises(ValueError, match="zero"):
        tangent_basis(np.zeros(2))


@given(spd2, angles)
@settings(max_examples=60, deadline=None)
def test_tangential_cometric_determinant_equals_det_a(a, th):
    # in the plane, τᵀΘτ = (nᵀan)(τᵀaτ) − (τᵀan)² = det a for unit n
    tp = theta_prime(a, _unit(th))
    assert tp.shape == (1, 1)
    assert tp[0, 0] == pytest.approx(np.linalg.det(a), rel=1e-10)


def test_planar_det_equals_the_constructed_determinant():
    # det a against det(PᵀΘP) in the oracle's tangent basis, on well-conditioned
    # SPD a and unit normals n/|n| of any direction
    rng = np.random.default_rng(102)
    L = rng.uniform(-1.0, 1.0, size=(500, 2, 2))
    a = L @ np.swapaxes(L, -1, -2) + 0.5 * np.eye(2)
    n = rng.normal(size=(500, 2)) * rng.uniform(0.1, 10.0, size=(500, 1))
    got = _planar_det(a)
    want = np.array([np.linalg.det(theta_prime(ai, ni / np.linalg.norm(ni))) for ai, ni in zip(a, n)])
    assert got.shape == (500,)
    assert np.max(np.abs(got - want) / want) <= 1e-12


# ---------------------------------------------------------------------------
# branch densities


def _alpha(a, rho):
    return _densities(_planar_det(a), rho)


def test_alpha_splits_by_weight_sign():
    n = _unit(0.7)
    ap, am = _alpha(np.eye(2), 1.0)
    assert (ap, am) == pytest.approx((2.0, 0.0), abs=1e-14)
    ap, am = _alpha(np.eye(2), -2.0)
    assert (ap, am) == pytest.approx((0.0, 4.0), abs=1e-14)
    with pytest.raises(WeylError, match="degenerate"):
        _alpha(np.outer(n, n), 1.0)  # rank-one conductivity
    # det a overflows to inf
    for a in (1e300 * np.eye(2), np.diag([1e200, 1e200])):
        with pytest.raises(WeylError, match="overflows"):
            _alpha(a, 1.0)


@pytest.mark.parametrize("th", np.linspace(0.05, 3.1, 12))
def test_alpha_refuses_a_rank_one_conductivity_at_every_angle(th):
    # rounding leaves det a = det Θ′ within a few ulps of zero, of either sign
    n = _unit(th)
    with pytest.raises(WeylError, match="degenerate"):
        _alpha(np.outer(n, n), 1.0)


@pytest.mark.parametrize(
    "a",
    [
        np.diag([4.0, 1.0]),
        np.diag([1e154, 1e154]),
        np.diag([1.0, 1e-12]),
        np.diag([1e-12, 1.0]),
    ],
    ids=["diag-4-1", "near-overflow", "cond-1e12", "cond-1e12-swapped"],
)
def test_alpha_accepts_spd_conductivities_up_to_rounding_level(a):
    for th in (0.0, 0.4, 2.0):
        R = np.array([[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]])
        ar = R @ a @ R.T
        n = np.eye(2)[0]
        ap, _ = _alpha(ar, 1.0)
        # α₊ is the length 2ρ/√Θ′ of the tangent-frequency interval {ξ : ξΘ′ξ ≤ ρ²}
        want = 2.0 / math.sqrt(float(np.linalg.det(theta_prime(ar, n))))
        assert ap == pytest.approx(want, rel=1e-3)


@given(spd2, angles, st.floats(-3.0, 3.0), st.floats(0.05, 20.0))
@settings(max_examples=60, deadline=None)
def test_beta_is_positively_homogeneous(a, th, c, scale):
    n = _unit(th)
    tau = tangent_basis(n)[:, 0] * scale
    b1 = beta(a, n, tau)
    bc = beta(a, n, c * tau)
    assert bc == pytest.approx(abs(c) * b1, rel=1e-10, abs=1e-12)
    assert b1 > 0


def test_beta_rejects_non_tangent_covectors():
    n = _unit(0.3)
    with pytest.raises(ValueError, match="tangent"):
        beta(np.eye(2), n, n)


def _bits(x) -> bytes:
    return np.asarray(x, dtype=float).tobytes()


def test_stacked_symbols_equal_per_item_calls_bitwise():
    rng = np.random.default_rng(2)
    L = rng.normal(size=(5, 7, 2, 2))
    a = L @ np.swapaxes(L, -1, -2) + 0.1 * np.eye(2)
    rho = rng.normal(size=(5, 7))
    rho[0, :2] = 0.0, -0.0  # ±0.0 weights give the same bits stacked and per item
    det, (ap, am) = _planar_det(a), _alpha(a, rho)
    assert det.shape == ap.shape == (5, 7)
    for i, j in np.ndindex(5, 7):
        assert _bits(det[i, j]) == _bits(_planar_det(a[i, j]))
        single = _alpha(a[i, j], float(rho[i, j]))
        assert _bits([ap[i, j], am[i, j]]) == _bits(single)


def test_stacked_alpha_names_the_first_degenerate_entry():
    n = np.array([_unit(th) for th in (0.1, 0.7, 0.5 * math.pi, 2.5)])
    a = np.tile(np.eye(2), (4, 1, 1))
    a[2] = np.outer(n[2], n[2])  # rank one: Θ′ vanishes
    a[3] = 1e300 * np.eye(2)  # Θ′ overflows
    first = float(np.linalg.det(a[2]))  # in the plane det Θ′ = det a
    with pytest.raises(WeylError, match="degenerate") as info:
        _alpha(a, np.ones(4))
    assert f"(det {first!r}, a11 " in str(info.value)


def test_weyl_coefficient_refuses_a_negative_definite_conductivity():
    # det(-I) = 1 passes the determinant floor; a11 = -1 does not
    minus = assembly.MatrixField("minus-identity", lambda pts: np.tile(-np.eye(2), (len(pts), 1, 1)))
    coeff = _unit_coeff().with_(a=minus)
    with pytest.raises(WeylError, match=r"not positive definite \(det 1\.0, a11 -1\.0\)"):
        weyl_coefficient(geometry.make_domain("square"), coeff)


# ---------------------------------------------------------------------------
# the symbol integral: s(x,ξ)·β(x,ξ) = 1/2 for every SPD a and tangent ξ


@given(spd2, angles, st.floats(0.2, 5.0))
@settings(max_examples=25, deadline=None)
def test_symbol_times_beta_is_one_half(a, th, scale):
    n = _unit(th)
    xi = tangent_basis(n)[:, 0] * scale
    s = oracles.symbol_oracle(a, n, xi)
    assert s * beta(a, n, xi) == pytest.approx(0.5, abs=1e-8)


# ---------------------------------------------------------------------------
# boundary integrals on catalog domains (closed forms)


def _unit_coeff(rho_values=None):
    if rho_values is None:
        rho = assembly.make_weight("constant", value=1.0)
    else:
        rho = assembly.segment_weight(rho_values)
    return assembly.CoefficientField(
        a=assembly.constant_matrix(1.0),
        v0=assembly.constant_potential(1.0),
        rho=rho,
    )


def _per_node_reference(domain, coeff):
    """The per-node loop: a and ρ per segment, α± and det Θ′ per node, and
    running sums in boundary order."""
    pts_a, pts_b = domain.segment_points()
    lengths = domain.segment_lengths()
    gx, gw = leggauss(weyl.GAUSS_ORDER)
    t = 0.5 * (gx + 1.0)
    rows, wp, wm, offset = [], 0.0, 0.0, 0.0
    for i in range(len(lengths)):
        pts = pts_a[i][None, :] + t[:, None] * (pts_b[i] - pts_a[i])[None, :]
        w = 0.5 * gw * lengths[i]
        a_vals = coeff.a(pts)
        rho_vals = coeff.rho(np.full(len(t), i), pts, pts)
        for q in range(len(t)):
            det = _planar_det(a_vals[q])
            ap, am = _densities(det, float(rho_vals[q]))
            det = float(det)
            rows.append((offset + t[q] * lengths[i], det, ap, am))
            wp += w[q] * ap
            wm += w[q] * am
        offset += lengths[i]
    factor = (2.0 * math.pi) ** -1
    return np.array(rows), factor * wp, factor * wm


@pytest.mark.parametrize(
    "domain, a, rho",
    [
        (("sawtooth-square", {}), ("constant", {}), None),
        (("square", {}), ("constant", {}), [1.0, 1.0, -1.0, -1.0]),
        (("square", {}), ("rotated-diagonal", {"p": 4.0, "q": 1.0, "angle": 0.35}), None),
        (("square", {}), ("checkerboard", {"cell": 0.25}), None),
        (("koch-prefractal", {"level": 2}), ("rotated-diagonal", {"p": 3.0, "q": 1.5, "angle": 1.1}), None),
    ],
)
def test_weyl_coefficient_equals_the_per_node_loop_bitwise(domain, a, rho):
    dom = geometry.make_domain(domain[0], **domain[1])
    coeff = _unit_coeff(rho).with_(a=assembly.make_matrix_field(a[0], **a[1]))
    data = weyl_coefficient(dom, coeff)
    rows, wp, wm = _per_node_reference(dom, coeff)
    table = np.column_stack([data.arclength, data.det_theta_prime, data.alpha_plus, data.alpha_minus])
    assert _bits(table) == _bits(rows)
    assert _bits([data.w_plus, data.w_minus]) == _bits([wp, wm])


# SHA-256 of the arclength, det Θ′ and α± arrays and of (W+, W−), taken before
# the symbol calculus became planar: any change to the quadrature's arithmetic
# shows here.
WEYL_DATA_DIGESTS = {
    "square": ("square", {}, ("constant", {}), None,
               "6f11ebab6398c6de39315a8f2aa0d9d3c0432b6a1ebc287790889e734f9f1785"),
    "sawtooth": ("sawtooth-square", {}, ("constant", {}), None,
                 "7995b7c46712cc10a9fc3f899a4e94596dbeab4148cd9a5b46c421da9099db5a"),
    "koch-l3": ("koch-prefractal", {"level": 3}, ("constant", {}), None,
                "3b3b7ce5cf49e3feae122997ab390414eefc3ecd1a68ff22af7300f5a139ad14"),
    "ngon-256": ("regular-ngon", {"n": 256}, ("constant", {}), None,
                 "b72a1bc8b3b9eb7d1b051fb30eac1cbe9accfe5e2174b894014cc440db897a87"),
    "sign-split": ("square", {}, ("constant", {}), [1.0, 1.0, -1.0, -1.0],
                   "c63bd4012c4ab3975650f0913f42a791f5d93e030a0ce8c89f8a942988f431c3"),
    "rotated-diagonal": ("square", {}, ("rotated-diagonal", {"p": 4.0, "q": 1.0, "angle": 0.35}), None,
                         "475f80a0a66ea65d91bd6bc2128994f57bf8b8b7d070effa9f2049163c189045"),
    "checkerboard": ("square", {}, ("checkerboard", {"cell": 0.25}), None,
                     "e2ec7f8fa9d2c3a0d4403b62b1f62b912b2a1d13acb4d5322feb2ea0b718d2da"),
    "lshape-diagonal": ("lshape", {}, ("rotated-diagonal", {"p": 3.0, "q": 7.0, "angle": 0.0}), None,
                        "f07cc947493f96fe8d15e7e9c66600b48307a7ed3603d1372bc8135610532e81"),
}


@pytest.mark.parametrize("case", list(WEYL_DATA_DIGESTS))
def test_weyl_data_bits_are_pinned(case):
    name, params, a, rho, digest = WEYL_DATA_DIGESTS[case]
    coeff = _unit_coeff(rho).with_(a=assembly.make_matrix_field(a[0], **a[1]))
    data = weyl_coefficient(geometry.make_domain(name, **params), coeff)
    h = hashlib.sha256()
    for x in (data.arclength, data.det_theta_prime, data.alpha_plus, data.alpha_minus):
        h.update(_bits(x))
    h.update(_bits([data.w_plus, data.w_minus]))
    assert h.hexdigest() == digest


def test_package_import_leaves_scipy_integrate_unloaded():
    # the symbol-integral oracle, the one user of scipy.integrate, lives in
    # tests/oracles.py; a run imports neither
    src = str(Path(weyl.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = "import sys, steklovlab.harness, steklovlab.cli; print('scipy.integrate' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


@pytest.mark.parametrize("rho", [[0.0] * 4, [2.0, 0.0, -1.0, 0.0]])
def test_zero_weight_gives_positive_zeros(square_domain, rho):
    # −ρ is −0.0 where ρ = 0: no negative zero may reach α±, W± or the CSV
    data = weyl_coefficient(square_domain, _unit_coeff(rho))
    assert not np.signbit([data.w_plus, data.w_minus]).any()
    assert not np.signbit(data.alpha_plus).any() and not np.signbit(data.alpha_minus).any()
    assert "-0.0" not in data.to_csv()


def test_square_coefficient_is_four_over_pi(square_domain):
    data = weyl_coefficient(square_domain, _unit_coeff())
    assert data.w_plus == pytest.approx(4.0 / math.pi, rel=1e-12)
    assert data.w_minus == pytest.approx(0.0, abs=1e-14)
    assert np.all(data.det_theta_prime == pytest.approx(1.0, rel=1e-12))


def test_sawtooth_and_prefractal_coefficients_track_perimeter():
    saw = geometry.make_domain("sawtooth-square")
    koch = geometry.make_domain("koch-prefractal", level=3)
    assert weyl_coefficient(saw, _unit_coeff()).w_plus == pytest.approx(
        (3.0 + math.sqrt(2.0)) / math.pi, rel=1e-12
    )
    assert weyl_coefficient(koch, _unit_coeff()).w_plus == pytest.approx(
        (64.0 / 9.0) / math.pi, rel=1e-12
    )


@pytest.mark.parametrize("angle", [0.0, 0.35, 1.2])
def test_rotated_anisotropy_rescales_by_root_determinant(square_domain, angle):
    coeff = _unit_coeff().with_(
        a=assembly.rotated_diagonal(4.0, 1.0, angle)
    )
    data = weyl_coefficient(square_domain, coeff)
    # det a = 4 on every segment, so the density halves: W = 2/π
    assert data.w_plus == pytest.approx(2.0 / math.pi, rel=1e-12)


def test_sign_split_weight_splits_the_coefficient(square_domain):
    data = weyl_coefficient(square_domain, _unit_coeff([1.0, 1.0, -1.0, -1.0]))
    assert data.w_plus == pytest.approx(2.0 / math.pi, rel=1e-12)
    assert data.w_minus == pytest.approx(2.0 / math.pi, rel=1e-12)


def test_quadrature_order_is_immaterial_for_piecewise_constant_data(square_domain, monkeypatch):
    monkeypatch.setattr(weyl, "GAUSS_ORDER", 2)
    lo = weyl_coefficient(square_domain, _unit_coeff())
    monkeypatch.setattr(weyl, "GAUSS_ORDER", 12)
    hi = weyl_coefficient(square_domain, _unit_coeff())
    assert lo.w_plus == pytest.approx(hi.w_plus, rel=1e-13)


def test_csv_has_one_row_per_quadrature_node(square_domain, monkeypatch):
    monkeypatch.setattr(weyl, "GAUSS_ORDER", 6)
    data = weyl_coefficient(square_domain, _unit_coeff())
    lines = data.to_csv().strip().splitlines()
    assert lines[0] == "arclength,det_theta_prime,alpha_plus,alpha_minus"
    assert len(lines) == 1 + 4 * 6
    assert np.all(np.diff(data.arclength) > 0)
