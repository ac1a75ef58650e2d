"""Generalized symmetric pencil B x = μ A x and spectral-tail diagnostics.

``A`` is the SPD energy matrix, ``B`` the (possibly sign-indefinite) boundary
weight matrix; the eigenvalues μ are the Rayleigh-quotient spectrum of
weight/energy.  B is boundary-supported, so at most ``boundary_rank(B)`` of
the n eigenvalues are nonzero; the other n − nb are structural zeros.

``solve_dense`` condenses the pencil onto the nb weighted nodes: one sparse
LU of A with those nodes last, whose trailing block is the Cholesky factor of
the Schur complement S = A_bb − A_bi A_ii⁻¹ A_ib (the discrete
Dirichlet-to-Neumann map) and whose pivots are the one SPD check; the n × n
pencil is never formed densely.  It eigendecomposes the nb × nb pencil
(B_bb, S) and lifts each eigenvector back to all n unknowns by one backward
substitution, so it returns every nonzero pair of both branches with
residuals on the full pencil.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

__all__ = [
    "EigensolveError",
    "Spectrum",
    "TailEstimate",
    "boundary_rank",
    "solve_dense",
    "counting",
    "tail_window",
    "tail_coefficient",
    "spectrum_to_csv",
    "spectrum_from_csv",
]

DENSE_DIMENSION_CAP = 8000  # caps nb = boundary_rank(B)
LIFT_BLOCK = 64  # columns per lifted block: dense work arrays stay n × 64
DENSE_RESIDUAL_TOL = 1e-8
ZERO_THRESHOLD_REL = 1e-12


class EigensolveError(RuntimeError):
    """Pencil solve failed or was called outside its contract."""


@dataclass
class Spectrum:
    """Signed ratio spectrum, split by branch.

    ``positive`` is sorted descending; ``negative`` is sorted by magnitude
    descending (most negative first).  Residuals are ‖Bx − μAx‖₂ for the
    A-normalized eigenvector of each retained pair.
    """

    positive: np.ndarray
    negative: np.ndarray
    residuals_positive: np.ndarray
    residuals_negative: np.ndarray
    zero_threshold: float
    n_dropped: int = 0
    boundary_rank: int | None = None

    def branch(self, sign: str) -> np.ndarray:
        if sign == "+":
            return self.positive
        if sign == "-":
            return self.negative
        raise EigensolveError(f"unknown branch {sign!r}")

    @property
    def residual_tolerance(self) -> float:
        return DENSE_RESIDUAL_TOL


def _split_branches(mu, res, zero_threshold, boundary_rank):
    mu = np.asarray(mu, dtype=float)
    res = np.asarray(res, dtype=float)
    keep = np.abs(mu) > zero_threshold
    dropped = int(len(mu) - keep.sum())
    mu, res = mu[keep], res[keep]
    pos = mu > 0
    order_p = np.argsort(-mu[pos], kind="stable")
    order_n = np.argsort(mu[~pos], kind="stable")  # most negative first
    return Spectrum(
        positive=mu[pos][order_p],
        negative=mu[~pos][order_n],
        residuals_positive=res[pos][order_p],
        residuals_negative=res[~pos][order_n],
        zero_threshold=zero_threshold,
        n_dropped=dropped,
        boundary_rank=boundary_rank,
    )


def _as_csr(mat) -> sp.csr_matrix:
    if sp.issparse(mat):
        return mat.tocsr()
    return sp.csr_matrix(np.asarray(mat, dtype=float))


def _weighted_rows(B: sp.csr_matrix) -> np.ndarray:
    return np.asarray(np.abs(B).sum(axis=1)).ravel() > 0


def boundary_rank(B) -> int:
    """Number of nonzero rows of B, an upper bound on the number of nonzero
    pencil eigenvalues; the dense solve runs on a pencil of this size."""
    return int(np.count_nonzero(_weighted_rows(_as_csr(B))))


def _residuals(A, B, mu, X):
    R = B @ X - A @ X * mu[None, :]
    return np.linalg.norm(R, axis=0)


def _splu(M, permc_spec):
    """Sparse LU with a symmetric ordering and diagonal pivots only, so that
    P M Pᵀ = L D Lᵀ with D = diag(U) when M is SPD."""
    return spla.splu(
        M.tocsc(),
        permc_spec=permc_spec,
        diag_pivot_thresh=0.0,
        options={"SymmetricMode": True},
    )


def _condense(A, B):
    """Condense A onto the weighted nodes: the Cholesky factor of the Schur
    complement behind ``solve_dense``.

    Nodes split by the row support of B into weighted (b, nb of them) and
    interior (i), ordered by a first sparse LU of A_ii.  One sparse LU of A
    with the weighted nodes last is L D Lᵀ, whose trailing block gives
    S = A_bb − A_bi A_ii⁻¹ A_ib = G Gᵀ with G = L_bb √D_bb.  By Sylvester's
    law A is SPD exactly when it keeps the order with positive pivots.
    Returns G, the sparse B_bb and the lift that extends boundary
    columns x_b to all n unknowns, x_i = −A_ii⁻¹ A_ib x_b = −L_ii⁻ᵀ L_biᵀ x_b,
    one backward substitution.  Raises ``EigensolveError`` when A is not SPD
    or nb exceeds ``DENSE_DIMENSION_CAP`` (a memory guard: the work arrays
    are nb × nb)."""
    n = A.shape[0]
    weighted = _weighted_rows(B)
    b = np.flatnonzero(weighted)
    i = np.flatnonzero(~weighted)
    nb, ni = len(b), len(i)
    if nb > DENSE_DIMENSION_CAP:
        raise EigensolveError(
            f"dense solve capped at {DENSE_DIMENSION_CAP} boundary unknowns (got {nb})"
        )
    try:
        if ni:  # perm_c sends node k to position perm_c[k]
            i = i[np.argsort(_splu(A[i][:, i], "MMD_AT_PLUS_A").perm_c)]
        order = np.concatenate([i, b])
        lu = _splu(A[order][:, order], "NATURAL")
    except RuntimeError as exc:  # SuperLU: "Factor is exactly singular"
        raise EigensolveError("energy matrix is not SPD (singular)") from exc
    pivots = lu.U.diagonal()
    kept = np.arange(n)
    ordered = np.array_equal(lu.perm_r, kept) and np.array_equal(lu.perm_c, kept)
    if not ordered or np.any(pivots <= 0):
        raise EigensolveError("energy matrix is not SPD")
    L = lu.L
    del lu
    G = L[ni:, ni:].toarray() * np.sqrt(pivots[ni:])
    L_ii_T, L_bi_T = L[:ni, :ni].T, L[ni:, :ni].T
    L_ii_T.sort_indices()  # spsolve_triangular copies it per call; sorted, the copy needs no sort

    def lift(Xb):
        X = np.zeros((n, Xb.shape[1]))
        X[b] = Xb
        if ni:
            X[i] = -spla.spsolve_triangular(
                L_ii_T, L_bi_T @ Xb, lower=False, unit_diagonal=True
            )
        return X

    return G, B[b][:, b], lift


def solve_dense(A, B) -> Spectrum:
    """Every nonzero pencil eigenvalue of both branches, via the
    boundary-condensed pencil.

    With the Cholesky factor S = GGᵀ of the condensed energy from
    ``_condense``, a symmetric eigendecomposition of G⁻¹B_bbG⁻ᵀ gives every
    nonzero μ.  Each eigenvector is lifted to all n unknowns, which keeps it
    A-normalized, and its residual is taken on the full pencil.  The n − nb
    structural zeros count in ``n_dropped``.  Raises ``EigensolveError`` as
    ``_condense`` does."""
    A = _as_csr(A)
    B = _as_csr(B)
    G, B_bb, lift = _condense(A, B)
    nb = len(G)
    Y = sla.solve_triangular(G, B_bb.toarray(), lower=True)
    C = sla.solve_triangular(G, Y.T, lower=True)
    C = 0.5 * (C + C.T)
    w, V = np.linalg.eigh(C)
    Xb = sla.solve_triangular(G, V, lower=True, trans="T")
    res = np.empty(nb)
    for c in range(0, nb, LIFT_BLOCK):
        cols = slice(c, c + LIFT_BLOCK)
        res[cols] = _residuals(A, B, w[cols], lift(Xb[:, cols]))
    zero_threshold = ZERO_THRESHOLD_REL * float(np.abs(w).max(initial=0.0))
    spec = _split_branches(w, res, zero_threshold, nb)
    spec.n_dropped += A.shape[0] - nb
    return spec


def counting(spec: Spectrum, lam: float, sign: str = "+") -> int:
    """n±(λ): eigenvalues of the branch with |μ| ≥ λ (closed count)."""
    if lam <= 0:
        raise EigensolveError("counting threshold must be positive")
    branch = spec.branch(sign)
    return int(np.count_nonzero(np.abs(branch) >= lam))


@dataclass
class TailEstimate:
    """Median/min/max of k·|μ_k| over an index window."""

    estimate: float
    lower: float
    upper: float
    window: tuple


def tail_window(resolved: int, kmin: int, kmax: int) -> tuple:
    """Tail-fit window over the first ``resolved`` eigenvalues of a branch.

    With ``kmin = kmax = 0`` it is [5, n/4], n = ``resolved``: a sign-split weight
    resolves each branch only up to its own inertia count, so capping by the
    boundary rank alone would push the window into the range where
    discretisation error dominates.  A nonzero ``kmin`` or ``kmax`` replaces
    its end; the upper end never exceeds ``resolved``, so a window too short
    to fit comes back with ``kmax < kmin``.
    """
    return (kmin or 5, min(kmax or max(5, resolved // 4), resolved))


def tail_coefficient(spec: Spectrum, window: tuple, sign: str = "+") -> TailEstimate:
    """Estimate lim λ n(λ) from the decay of one branch's eigenvalues.

    Since n(λ) ≈ W/λ means |μ_k| ≈ W/k, the products k·|μ_k| are
    asymptotically flat; the median over the window [kmin, kmax] (1-based,
    as ``tail_window`` gives it) is the estimate and the min/max give an
    honest band.
    """
    branch = np.abs(spec.branch(sign))
    kmin, kmax = int(window[0]), int(window[1])
    if kmin < 1 or kmax < kmin:
        raise EigensolveError(f"bad tail window {window}")
    if kmax > len(branch):
        raise EigensolveError(
            f"tail window [{kmin},{kmax}] exceeds resolved count {len(branch)}"
        )
    prods = np.arange(kmin, kmax + 1, dtype=float) * branch[kmin - 1 : kmax]
    return TailEstimate(
        estimate=float(np.median(prods)),
        lower=float(prods.min()),
        upper=float(prods.max()),
        window=(kmin, kmax),
    )


# ---------------------------------------------------------------------------
# export


def spectrum_to_csv(spec: Spectrum) -> str:
    """CSV with one row per retained pair: index, branch, eigenvalue, residual."""
    out = io.StringIO()
    out.write("index,branch,eigenvalue,residual\n")
    for i, (mu, r) in enumerate(zip(spec.positive, spec.residuals_positive), 1):
        out.write(f"{i},+,{float(mu)!r},{float(r)!r}\n")
    for i, (mu, r) in enumerate(zip(spec.negative, spec.residuals_negative), 1):
        out.write(f"{i},-,{float(mu)!r},{float(r)!r}\n")
    return out.getvalue()


def spectrum_from_csv(text: str) -> Spectrum:
    """Inverse of ``spectrum_to_csv``; leading ``#`` comment lines (the
    harness stamp) are skipped."""
    pos, neg, rp, rn = [], [], [], []
    lines = text.strip().splitlines()
    while lines and lines[0].startswith("#"):
        lines.pop(0)
    if not lines or lines[0] != "index,branch,eigenvalue,residual":
        raise EigensolveError("not a spectrum CSV")
    for line in lines[1:]:
        fields = line.split(",")
        if len(fields) != 4 or fields[1] not in ("+", "-"):
            raise EigensolveError(f"bad spectrum CSV row {line!r}")
        try:
            mu, r = float(fields[2]), float(fields[3])
        except ValueError as exc:
            raise EigensolveError(f"bad spectrum CSV row {line!r}") from exc
        if fields[1] == "+":
            pos.append(mu)
            rp.append(r)
        else:
            neg.append(mu)
            rn.append(r)
    return Spectrum(
        np.array(pos), np.array(neg), np.array(rp), np.array(rn), 0.0
    )
