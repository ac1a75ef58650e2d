"""Pencil eigensolver: exactness on diagonal pencils, the condensed dense
solve against a full generalized eigh on small meshes, the SPD guard, the
condensed factor against a dense Schur complement, with the returned pairs
lifted densely to the full pencil, the dense solve on scipy's kernels alone
against numpy's eigh, the Schur probe against a perturbed factorization, the
Schur probe's scale-free gap, the
Bessel-quotient oracle on a disk, the Steklov spectra of the disk and the
square from the shifted pencil, counting and tail-extraction semantics, and
the CSV round trip."""

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

import oracles
from oracles import DENSE_RESIDUAL_TOL
from steklovlab import assembly, eigensolve, geometry
from steklovlab.eigensolve import (
    EigensolveError,
    Spectrum,
    _condense,
    counting,
    solve_dense,
    spectrum_to_csv,
    tail_coefficient,
    tail_window,
)


def _diag_pencil(a_diag, b_diag):
    return sp.diags(np.asarray(a_diag, float)), sp.diags(np.asarray(b_diag, float))


# ---------------------------------------------------------------------------
# exact diagonal pencils


def test_diagonal_pencil_is_exact():
    A, B = _diag_pencil([2.0, 1.0, 4.0, 5.0], [4.0, 3.0, -2.0, 0.0])
    spec = solve_dense(A, B)
    assert spec.positive == pytest.approx([3.0, 2.0], abs=1e-13)
    assert spec.negative == pytest.approx([-0.5], abs=1e-13)
    assert spec.n_dropped == 1  # the structural zero from b=0
    assert spec.boundary_rank == 3
    assert np.all(spec.residuals_positive < DENSE_RESIDUAL_TOL)


@given(
    st.lists(st.floats(0.5, 50.0), min_size=2, max_size=12),
    st.data(),
)
@settings(max_examples=40, deadline=None)
def test_diagonal_pencil_property(a_diag, data):
    b_diag = data.draw(
        st.lists(
            st.floats(-20.0, 20.0).filter(lambda x: x == 0.0 or abs(x) > 1e-6),
            min_size=len(a_diag),
            max_size=len(a_diag),
        )
    )
    A, B = _diag_pencil(a_diag, b_diag)
    spec = solve_dense(A, B)
    ratios = np.array(b_diag) / np.array(a_diag)
    pos = np.sort(ratios[ratios > spec.zero_threshold])[::-1]
    neg = np.sort(ratios[ratios < -spec.zero_threshold])
    assert spec.positive == pytest.approx(pos, abs=1e-10)
    assert spec.negative == pytest.approx(neg, abs=1e-10)
    # descending magnitudes within each branch
    assert np.all(np.diff(spec.positive) <= 1e-15)
    assert np.all(np.diff(spec.negative) >= -1e-15)


def test_zero_weight_yields_empty_spectrum():
    A, B = _diag_pencil([1.0, 2.0, 3.0], [0.0, 0.0, 0.0])
    spec = solve_dense(A, B)
    assert spec.positive.size == 0 and spec.negative.size == 0
    assert spec.n_dropped == 3


def test_non_spd_energy_matrix_raises():
    A, B = _diag_pencil([1.0, -1.0], [1.0, 1.0])
    with pytest.raises(EigensolveError, match="SPD"):
        solve_dense(A, B)


def test_dense_cap_guards_memory():
    n = 8001
    A = sp.identity(n, format="csr")
    with pytest.raises(EigensolveError, match="capped"):
        solve_dense(A, A)


def _mesh_pencil(domain, kw, h, rho, v0=1.0, a=None):
    mesh = geometry.triangulate(geometry.make_domain(domain, **kw), h)
    coeff = assembly.CoefficientField(
        a or assembly.constant_matrix(1.0), assembly.constant_potential(v0), rho
    )
    forms = assembly.assemble_forms(mesh, coeff)
    return mesh, forms.A, forms.B


def _square_pencil():
    return _mesh_pencil("square", {}, 0.2, assembly.constant_weight(1.0))


def _indefinite_interior_pencil():
    # flip one interior diagonal entry: the weighted rows are untouched, so
    # only the SPD check on the interior block can see the defect
    mesh, A, B = _square_pencil()
    interior = np.setdiff1d(np.arange(mesh.n_nodes), mesh.boundary_edges)
    A = A.tolil()
    A[interior[0], interior[0]] *= -1.0
    return A.tocsr(), B


_NON_SPD_PENCILS = {
    "diagonal": lambda: _diag_pencil([1.0, 2.0, -1.0], [1.0, 3.0, 0.0]),
    "singular": lambda: _diag_pencil([1.0, 2.0, 0.0], [1.0, 3.0, 0.0]),
    "mesh": _indefinite_interior_pencil,
}


@pytest.mark.parametrize("make_pencil", _NON_SPD_PENCILS.values(), ids=_NON_SPD_PENCILS)
def test_non_spd_interior_block_raises(make_pencil):
    A, B = make_pencil()
    with pytest.raises(EigensolveError, match="SPD"):
        solve_dense(A, B)


def test_non_spd_schur_complement_raises():
    # A negative boundary diagonal leaves the interior block SPD, so only the
    # pivots of the weighted nodes see it; an eigh of (S, B_bb) alone would
    # return a negative Steklov eigenvalue instead of failing.
    mesh, K, B = _mesh_pencil("square", {}, 0.2, assembly.constant_weight(1.0), v0=0.0)
    interior = np.setdiff1d(np.arange(mesh.n_nodes), mesh.boundary_edges)
    K = K.tolil()
    node = mesh.boundary_edges[0, 0]
    K[node, node] = -10.0
    K = K.tocsr()
    assert np.linalg.eigvalsh(K[interior][:, interior].toarray()).min() > 0
    with pytest.raises(EigensolveError, match="SPD"):
        solve_dense(K, B)


def test_boundary_rank_counts_weighted_rows():
    assert solve_dense(*_diag_pencil([1.0, 1.0, 1.0, 1.0], [0.0, 2.0, -1.0, 0.0])).boundary_rank == 2
    mesh, A, B = _square_pencil()
    assert solve_dense(A, B).boundary_rank == len(np.unique(mesh.boundary_edges))


# ---------------------------------------------------------------------------
# the condensed dense solve against an independent full generalized eigh


@pytest.mark.parametrize(
    "domain,kw,h,rho",
    [
        ("square", {}, 0.1, assembly.constant_weight(1.0)),
        ("lshape", {}, 0.1, assembly.constant_weight(1.0)),
        ("square", {}, 0.1, assembly.segment_weight([1.0, 1.0, -1.0, -1.0])),
        ("lshape", {}, 0.1, assembly.segment_weight([1.0, 2.0, 1.0, 1.0, 1.0, 0.0])),
        ("regular-ngon", {"n": 8}, 2.0, assembly.constant_weight(1.0)),
    ],
    ids=["square", "lshape", "sign-split", "partial-support", "no-interior"],
)
def test_dense_matches_full_generalized_eigh(domain, kw, h, rho):
    _, A, B = _mesh_pencil(domain, kw, h, rho)
    n = A.shape[0]
    spec = solve_dense(A, B)
    ref = sla.eigh(B.toarray(), A.toarray(), eigvals_only=True)
    thr = 1e-12 * np.abs(ref).max()
    ref_pos = np.sort(ref[ref > thr])[::-1]
    ref_neg = np.sort(ref[ref < -thr])
    assert len(spec.positive) == len(ref_pos)
    assert len(spec.negative) == len(ref_neg)
    for got, want in ((spec.positive, ref_pos), (spec.negative, ref_neg)):
        if len(want):
            assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-10
    retained = len(spec.positive) + len(spec.negative)
    assert spec.n_dropped == n - retained
    assert spec.boundary_rank == np.count_nonzero(abs(B).sum(axis=1))
    assert np.all(spec.residuals_positive < DENSE_RESIDUAL_TOL)
    assert np.all(spec.residuals_negative < DENSE_RESIDUAL_TOL)


# ---------------------------------------------------------------------------
# the condensation: one sparse factorization against a dense Schur complement


def _dense_schur(A, B):
    weighted = np.abs(B).sum(axis=1) > 0
    A = A.toarray()
    A_ib = A[~weighted][:, weighted]
    A_ii_inv_A_ib = sla.solve(A[~weighted][:, ~weighted], A_ib, assume_a="pos")
    return A[weighted][:, weighted] - A_ib.T @ A_ii_inv_A_ib, A_ii_inv_A_ib, weighted


@pytest.mark.parametrize(
    "domain,rho,a",
    [
        ("square", assembly.constant_weight(1.0), None),
        ("square", assembly.segment_weight([1.0, 1.0, -1.0, -1.0]), None),
        ("lshape", assembly.segment_weight([1.0, 2.0, 1.0, 1.0, 1.0, 0.0]), None),
        ("square", assembly.constant_weight(1.0), assembly.rotated_diagonal(1.0, 4.0, 0.5)),
    ],
    ids=["square", "sign-split", "partial-support", "rotated-diagonal"],
)
def test_condensed_factor_is_the_cholesky_factor_of_the_schur_complement(
    domain, rho, a, monkeypatch
):
    _, A, B = _mesh_pencil(domain, {}, 0.1, rho, a=a)
    S, A_ii_inv_A_ib, weighted = _dense_schur(A, B.toarray())
    G, B_bb, _ = _condense(A.tocsr(), B.tocsr())
    assert np.array_equal(G, np.tril(G)) and np.all(np.diag(G) > 0)
    assert np.linalg.norm(G @ G.T - S) <= 1e-12 * np.linalg.norm(S)
    assert np.array_equal(B_bb.toarray(), B.toarray()[weighted][:, weighted])
    # solve_dense's pairs, lifted by x_i = -A_ii^-1 A_ib x_b, solve the full pencil
    pairs = []
    condensed_eigh = eigensolve._condensed_eigh

    def recording(G, B_bb):
        pairs.append(condensed_eigh(G, B_bb))
        return pairs[-1]

    monkeypatch.setattr(eigensolve, "_condensed_eigh", recording)
    spec = solve_dense(A, B)
    mu, Xb = pairs[0]
    retained = np.concatenate([spec.positive, spec.negative])
    assert np.array_equal(np.sort(retained), np.sort(mu[np.abs(mu) > spec.zero_threshold]))
    X = np.zeros((A.shape[0], len(mu)))
    X[weighted], X[~weighted] = Xb, -A_ii_inv_A_ib @ Xb
    A, B = A.toarray(), B.toarray()
    assert np.allclose(np.einsum("ik,ij,jk->k", X, A, X), 1.0, rtol=1e-12)
    assert np.linalg.norm(B @ X - (A @ X) * mu, axis=0).max() < 1e-12
    assert spec.schur_gap < 1e-13


@pytest.mark.parametrize(
    "rho,a",
    [
        (assembly.segment_weight([1.0, 1.0, -1.0, -1.0]), None),
        (assembly.constant_weight(1.0), assembly.rotated_diagonal(1.0, 4.0, 0.5)),
    ],
    ids=["sign-split", "rotated-diagonal"],
)
def test_dense_solve_runs_on_scipy_kernels_alone(rho, a, monkeypatch):
    # numpy's eigh must not be reached: its OpenBLAS pool is not scipy's
    _, A, B = _mesh_pencil("square", {}, 0.1, rho, a=a)

    def refuse(*args, **kwargs):
        raise AssertionError("numpy.linalg eigensolver called")

    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, refuse)
    pairs = []
    condensed_eigh = eigensolve._condensed_eigh

    def recording(G, B_bb):
        pairs.append(condensed_eigh(G, B_bb))
        return pairs[-1]

    monkeypatch.setattr(eigensolve, "_condensed_eigh", recording)
    spec = solve_dense(A, B)
    monkeypatch.undo()
    # numpy's eigh of the same G⁻¹B_bbG⁻ᵀ, and the residuals written with @
    G, B_bb, _ = _condense(A.tocsr(), B.tocsr())
    C = sla.solve_triangular(G, sla.solve_triangular(G, B_bb.toarray(), lower=True).T, lower=True)
    w = np.linalg.eigh(0.5 * (C + C.T))[0]
    mu, Xb = pairs[0]
    res = np.linalg.norm(B_bb @ Xb - (G @ (G.T @ Xb)) * mu, axis=0)
    ref = eigensolve._split_branches(w, res, spec.zero_threshold, len(G))
    assert len(spec.positive) == len(ref.positive) > 0
    assert len(spec.negative) == len(ref.negative)
    for got, want in ((spec.positive, ref.positive), (spec.negative, ref.negative)):
        assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))
    ref = eigensolve._split_branches(mu, res, spec.zero_threshold, len(G))
    assert np.all(np.abs(spec.residuals_positive - ref.residuals_positive) <= 1e-14)
    assert np.all(np.abs(spec.residuals_negative - ref.residuals_negative) <= 1e-14)


@pytest.mark.parametrize(
    "make_pencil,nb",
    [
        (lambda: _mesh_pencil("regular-ngon", {"n": 8}, 2.0, assembly.constant_weight(1.0))[1:], 8),
        (lambda: _diag_pencil([1.0, 2.0, 3.0], [0.0, 0.0, 0.0]), 0),
    ],
    ids=["no-interior", "zero-weight"],
)
def test_condensation_without_interior_or_weighted_nodes(make_pencil, nb):
    A, B = make_pencil()
    G, B_bb, gap = _condense(sp.csr_matrix(A), sp.csr_matrix(B))
    assert G.shape == (nb, nb) and B_bb.shape == (nb, nb)
    if nb:
        assert np.allclose(G @ G.T, A.toarray())
        assert gap < 1e-13
    else:
        assert gap == 0.0


def test_schur_probe_catches_a_perturbed_condensation(monkeypatch):
    # the ordered factorization sees one A_bb diagonal entry scaled by
    # 1 + 1e-6: it stays SPD and keeps its order, so only the probe can tell
    splu = eigensolve._splu

    def perturbed(M, permc_spec):
        if permc_spec == "NATURAL":
            M = M.tolil()
            M[-1, -1] *= 1 + 1e-6
        return splu(M, permc_spec)

    monkeypatch.setattr(eigensolve, "_splu", perturbed)
    _, A, B = _square_pencil()
    with pytest.raises(EigensolveError, match="Schur"):
        solve_dense(A, B)


def test_schur_probe_gap_is_scale_free():
    # a power-of-two scale of both forms changes no rounding step of the
    # solve; at 2^900 the probe's norms, taken unscaled, overflow to a NaN gap
    _, A, B = _mesh_pencil("square", {}, 0.2, assembly.segment_weight([1.0, 1.0, -1.0, -1.0]))
    ref = solve_dense(A, B)
    big = solve_dense(2.0**900 * A, 2.0**900 * B)
    for got, want in ((big.positive, ref.positive), (big.negative, ref.negative)):
        assert got.tobytes() == want.tobytes()
    assert np.float64(big.schur_gap).tobytes() == np.float64(ref.schur_gap).tobytes()
    assert len(ref.positive) and len(ref.negative) and 0 < ref.schur_gap < 1e-13


# ---------------------------------------------------------------------------
# Bessel-quotient oracle on the unit disk: the ratio eigenvalues of the
# (gradient + unit potential, boundary mass) pencil are 1/sigma_k with
# sigma_k = I_k'(1)/I_k(1)


def test_disk_eigenvalues_match_bessel_quotients():
    _, A, B = _mesh_pencil("regular-ngon", {"n": 96}, 0.05, assembly.constant_weight(1.0))
    spec = solve_dense(A, B)
    got = spec.positive[: len(oracles.DISK_V1_MU)]
    rel = np.abs(got - oracles.DISK_V1_MU) / oracles.DISK_V1_MU
    assert rel.max() < 0.02
    assert counting(spec, 1.0 / 10.5) == oracles.DISK_V1_COUNT_AT_10_5


# ---------------------------------------------------------------------------
# Steklov spectrum from the shifted pencil: K u = sigma B u exactly when
# (K + B) u = (1 + sigma) B u, so mu = 1/(1 + sigma); on the unit disk
# sigma_0 = 0 and sigma_{2m-1} = sigma_{2m} = m


def _steklov(domain, kw, h):
    """Ascending Steklov eigenvalues sigma at v0 = 0, from the shifted pencil."""
    _, K, B = _mesh_pencil(domain, kw, h, assembly.constant_weight(1.0), v0=0.0)
    spec = solve_dense(K + B, B)
    assert spec.negative.size == 0
    assert np.all(spec.residuals_positive < DENSE_RESIDUAL_TOL)
    return 1.0 / spec.positive - 1.0


def test_steklov_eigenvalues_match_the_disk():
    sigma = _steklov("regular-ngon", {"n": 96}, 0.05)
    assert np.all(np.diff(sigma) >= 0)
    assert abs(sigma[0]) < 1e-10
    want = np.array([1.0, 1.0, 2.0, 2.0, 3.0, 3.0, 4.0, 4.0])
    assert np.max(np.abs(sigma[1:9] - want) / want) < 0.02


def test_steklov_eigenvalues_converge_to_the_square():
    # pairs 1-10 against separation of variables; the relative error falls
    # at about second order, 2.8e-2 at h = 0.05 and 7.2e-3 at h = 0.025
    want = oracles.square_steklov_eigenvalues(11)[1:]
    errs = []
    for h, bound in ((0.05, 0.06), (0.025, 0.015)):
        sigma = _steklov("square", {}, h)
        errs.append(np.max(np.abs(sigma[1:11] - want) / want))
        assert errs[-1] < bound
    assert errs[1] < errs[0] / 3


@pytest.mark.parametrize(
    "domain,kw,h",
    [("regular-ngon", {"n": 8}, 2.0), ("koch-prefractal", {"level": 2}, 0.05)],
    ids=["no-interior", "koch-l2"],
)
def test_steklov_accepts_the_constant_kernel(domain, kw, h):
    # K is singular on the constants, K + B is SPD: sigma_0 is the constant mode
    sigma = _steklov(domain, kw, h)
    assert abs(sigma[0]) < 1e-10 and sigma[1] > 0.5


# ---------------------------------------------------------------------------
# counting semantics


def _synthetic_spectrum(pos, neg=()):
    pos = np.asarray(pos, float)
    neg = np.asarray(neg, float)
    return Spectrum(
        positive=pos,
        negative=neg,
        residuals_positive=np.zeros_like(pos),
        residuals_negative=np.zeros_like(neg),
        zero_threshold=0.0,
        boundary_rank=len(pos) + len(neg),
    )


def test_counting_is_a_closed_count():
    spec = _synthetic_spectrum([3.0, 2.0, 1.0, 0.5], [-2.5, -0.25])
    assert counting(spec, 1.0) == 3  # ties included
    assert counting(spec, 3.0001) == 0
    assert counting(spec, 0.2, sign="-") == 2
    assert counting(spec, 1.0, sign="-") == 1
    for lam in (0.0, float("nan")):
        with pytest.raises(EigensolveError, match="positive"):
            counting(spec, lam)


def test_unknown_branch_name_raises():
    spec = _synthetic_spectrum([1.0])
    with pytest.raises(EigensolveError, match="branch"):
        spec.branch("sideways")


# ---------------------------------------------------------------------------
# tail extraction: on mu_k = W/k (oracle dimension d = 1) the window products
# are exactly W


@pytest.mark.parametrize("W,d", [(2.0, 1), (4.0 / np.pi, 1)])
def test_tail_coefficient_exact_on_synthetic_sequence(W, d):
    mu = oracles.synthetic_tail_sequence(W, d, 120)
    spec = _synthetic_spectrum(mu)
    t = tail_coefficient(spec, window=(10, 40))
    assert t.estimate == pytest.approx(W, rel=1e-12)
    assert (t.lower, t.upper) == pytest.approx((W, W), rel=1e-12)
    assert t.window == (10, 40)


def test_tail_default_window_scales_with_branch_length():
    mu = oracles.synthetic_tail_sequence(2.0, 1, 100)
    spec = _synthetic_spectrum(mu)
    t = tail_coefficient(spec, window=tail_window(len(spec.positive), 0, 0))
    assert t.window == (5, 25)
    # the negative branch is empty here, so its window cannot be formed
    with pytest.raises(EigensolveError):
        tail_coefficient(spec, window=tail_window(len(spec.negative), 0, 0), sign="-")


def test_tail_window_validation():
    spec = _synthetic_spectrum(oracles.synthetic_tail_sequence(1.0, 1, 20))
    with pytest.raises(EigensolveError, match="window"):
        tail_coefficient(spec, window=(0, 5))
    with pytest.raises(EigensolveError, match="window"):
        tail_coefficient(spec, window=(9, 4))
    with pytest.raises(EigensolveError, match="exceeds"):
        tail_coefficient(spec, window=(5, 21))


# ---------------------------------------------------------------------------
# CSV round trip


def test_spectrum_csv_round_trip():
    spec = _synthetic_spectrum([2.0, 1.0 / 3.0, 1e-7], [-np.pi])
    lines = spectrum_to_csv(spec).splitlines()
    assert lines[0] == "index,branch,eigenvalue,residual"
    rows = [line.split(",") for line in lines[1:]]
    for sign, values in (("+", spec.positive), ("-", spec.negative)):
        back = [float(r[2]) for r in rows if r[1] == sign]
        assert [int(r[0]) for r in rows if r[1] == sign] == list(range(1, len(values) + 1))
        assert np.array_equal(back, values)
