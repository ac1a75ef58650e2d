"""Generalized symmetric pencil B x = μ A x and spectral-tail diagnostics.

``A`` is the SPD energy matrix, ``B`` the (possibly sign-indefinite) boundary
weight matrix; the eigenvalues μ are the Rayleigh-quotient spectrum of
weight/energy.  B is boundary-supported, so at most ``boundary_rank(B)`` of
the n eigenvalues are nonzero; the other n − nb are structural zeros.

``solve_dense`` never forms the n × n pencil.  It condenses A onto the nb
weighted nodes (the Schur complement S = A_bb − A_bi A_ii⁻¹ A_ib, the
discrete Dirichlet-to-Neumann map), eigendecomposes the nb × nb pencil
(B_bb, S) densely and lifts each eigenvector back to all n unknowns, so its
residuals are those of the full pencil.  ``solve_iterative`` runs Lanczos on
the full pencil for a few pairs of one branch.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field

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
    "solve_iterative",
    "merge_spectra",
    "counting",
    "tail_coefficient",
    "spectrum_to_csv",
    "spectrum_from_csv",
]

DENSE_DIMENSION_CAP = 8000  # caps nb = boundary_rank(B)
SCHUR_BLOCK = 64  # columns per block: dense work arrays stay n × 64
DENSE_RESIDUAL_TOL = 1e-8
ITERATIVE_RESIDUAL_TOL = 1e-6
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
    method: str
    zero_threshold: float
    n_dropped: int = 0
    boundary_rank: int | None = None

    def branch(self, sign: str) -> np.ndarray:
        if sign in ("+", "pos", "positive"):
            return self.positive
        if sign in ("-", "neg", "negative"):
            return self.negative
        raise EigensolveError(f"unknown branch {sign!r}")

    @property
    def residual_tolerance(self) -> float:
        return DENSE_RESIDUAL_TOL if self.method == "dense" else ITERATIVE_RESIDUAL_TOL


def _split_branches(mu, res, method, zero_threshold, boundary_rank):
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
        method=method,
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


def _factor_interior(A_ii):
    """Sparse LU of the interior block with a symmetric ordering and diagonal
    pivots only, so that P A_ii Pᵀ = L D Lᵀ with D = diag(U).  By Sylvester's
    law of inertia A_ii is SPD exactly when every pivot is positive."""
    try:
        lu = spla.splu(
            A_ii.tocsc(),
            permc_spec="MMD_AT_PLUS_A",
            diag_pivot_thresh=0.0,
            options={"SymmetricMode": True},
        )
    except RuntimeError as exc:  # SuperLU: "Factor is exactly singular"
        raise EigensolveError("energy matrix is not SPD (singular interior block)") from exc
    if not np.array_equal(lu.perm_r, lu.perm_c) or not np.all(lu.U.diagonal() > 0):
        raise EigensolveError("energy matrix is not SPD (interior block)")
    return lu


def solve_dense(A, B) -> Spectrum:
    """All nonzero pencil eigenvalues via the boundary-condensed pencil.

    Nodes split by the row support of B into weighted (b, nb of them) and
    interior (i).  One sparse LU of A_ii builds the Schur complement
    S = A_bb − A_bi A_ii⁻¹ A_ib in column blocks; the Cholesky reduction
    S = LLᵀ and a symmetric eigendecomposition of L⁻¹B_bbL⁻ᵀ give every
    nonzero μ.  Each eigenvector is lifted with x_i = −A_ii⁻¹ A_ib x_b, which
    keeps it A-normalized, and its residual is taken on the full pencil.
    The n − nb structural zeros count in ``n_dropped``.  Raises
    ``EigensolveError`` when nb exceeds ``DENSE_DIMENSION_CAP`` or when A is
    not SPD (a nonpositive interior pivot or a failed Cholesky of S)."""
    A = _as_csr(A)
    B = _as_csr(B)
    n = A.shape[0]
    weighted = _weighted_rows(B)
    b = np.flatnonzero(weighted)
    i = np.flatnonzero(~weighted)
    nb = len(b)
    if nb > DENSE_DIMENSION_CAP:
        raise EigensolveError(
            f"dense solve capped at {DENSE_DIMENSION_CAP} boundary unknowns (got {nb})"
        )
    A_b = A[b]
    S = A_b[:, b].toarray()
    lu = None
    if len(i):
        A_i = A[i]
        lu = _factor_interior(A_i[:, i])
        A_ib = A_i[:, b].tocsc()
        A_bi = A_b[:, i]
        for c in range(0, nb, SCHUR_BLOCK):
            cols = slice(c, c + SCHUR_BLOCK)
            S[:, cols] -= A_bi @ lu.solve(A_ib[:, cols].toarray())
    S = 0.5 * (S + S.T)
    try:
        L = np.linalg.cholesky(S)
    except np.linalg.LinAlgError as exc:
        raise EigensolveError("energy matrix is not SPD") from exc
    Y = sla.solve_triangular(L, B[b][:, b].toarray(), lower=True)
    C = sla.solve_triangular(L, Y.T, lower=True)
    C = 0.5 * (C + C.T)
    w, V = np.linalg.eigh(C)
    Xb = sla.solve_triangular(L, V, lower=True, trans="T")
    res = np.empty(nb)
    for c in range(0, nb, SCHUR_BLOCK):
        cols = slice(c, c + SCHUR_BLOCK)
        Xc = Xb[:, cols]
        X = np.zeros((n, Xc.shape[1]))
        X[b] = Xc
        if lu is not None:
            X[i] = -lu.solve(A_ib @ Xc)
        res[cols] = _residuals(A, B, w[cols], X)
    zero_threshold = ZERO_THRESHOLD_REL * float(np.abs(w).max(initial=0.0))
    spec = _split_branches(w, res, "dense", zero_threshold, nb)
    spec.n_dropped += n - nb
    return spec


def solve_iterative(A, B, k: int, *, sign: str = "+", seed: int = 0, maxiter=None) -> Spectrum:
    """Largest-|μ| pairs of one branch via shift-free Lanczos on the pencil.

    The start vector is seeded deterministically so repeated runs agree
    bitwise.  ``k`` is capped by the boundary rank of B (eigenvalues beyond
    it are structural zeros)."""
    A = _as_csr(A)
    B = _as_csr(B)
    n = A.shape[0]
    rank = boundary_rank(B)
    if B.nnz == 0 or rank == 0:
        return Spectrum(
            np.array([]), np.array([]), np.array([]), np.array([]),
            "iterative", 0.0, 0, 0,
        )
    if k > rank:
        raise EigensolveError(f"requested {k} pairs but weight rank is {rank}")
    which = "LA" if sign in ("+", "pos", "positive") else "SA"
    v0 = np.random.default_rng(seed).standard_normal(n)
    try:
        w, X = spla.eigsh(B, k=k, M=A, which=which, v0=v0, maxiter=maxiter)
    except spla.ArpackNoConvergence as exc:
        raise EigensolveError(
            f"iterative solve did not converge ({len(exc.eigenvalues)} of {k} pairs)"
        ) from exc
    res = _residuals(A, B, w, X)
    ref = float(np.abs(w).max(initial=0.0))
    zero_threshold = ZERO_THRESHOLD_REL * ref
    spec = _split_branches(w, res, "iterative", zero_threshold, rank)
    return spec


def merge_spectra(pos: Spectrum, neg: Spectrum) -> Spectrum:
    """Combine the positive branch of one solve with the negative branch of
    another (two one-sided iterative runs on the same pencil)."""
    return Spectrum(
        positive=pos.positive,
        negative=neg.negative,
        residuals_positive=pos.residuals_positive,
        residuals_negative=neg.residuals_negative,
        method=pos.method,
        zero_threshold=max(pos.zero_threshold, neg.zero_threshold),
        n_dropped=pos.n_dropped + neg.n_dropped,
        boundary_rank=pos.boundary_rank,
    )


def counting(spec: Spectrum, lam: float, sign: str = "+") -> int:
    """n±(λ): eigenvalues of the branch with |μ| ≥ λ (closed count)."""
    if lam <= 0:
        raise EigensolveError("counting threshold must be positive")
    branch = spec.branch(sign)
    return int(np.count_nonzero(np.abs(branch) >= lam))


@dataclass
class TailEstimate:
    """Median/min/max of k·μ_k^d over an index window."""

    estimate: float
    lower: float
    upper: float
    window: tuple
    d: int
    sign: str

    @property
    def band(self) -> tuple:
        return (self.lower, self.upper)


def tail_coefficient(
    spec: Spectrum,
    d: int = 1,
    window: tuple | None = None,
    sign: str = "+",
) -> TailEstimate:
    """Estimate lim λ^d n(λ) from the decay of the eigenvalue sequence.

    Since n(λ) ≈ W λ^(-d) means μ_k ≈ (W/k)^(1/d), the products k·μ_k^d are
    asymptotically flat; the median over the window is the estimate and the
    min/max give an honest band.  The default window is [5, n/4] where n
    counts the resolved eigenvalues of the requested branch: a sign-split
    weight resolves each branch only up to its own inertia count, so capping
    by the boundary rank alone would push the window into the range where
    discretisation error dominates.
    """
    branch = np.abs(spec.branch(sign))
    if window is None:
        if spec.boundary_rank is None:
            raise EigensolveError("tail window needed when boundary rank unknown")
        window = (5, max(5, len(branch) // 4))
    kmin, kmax = int(window[0]), int(window[1])
    if kmin < 1 or kmax < kmin:
        raise EigensolveError(f"bad tail window {window}")
    if kmax > len(branch):
        raise EigensolveError(
            f"tail window [{kmin},{kmax}] exceeds resolved count {len(branch)}"
        )
    k = np.arange(kmin, kmax + 1, dtype=float)
    prods = k * branch[kmin - 1 : kmax] ** d
    return TailEstimate(
        estimate=float(np.median(prods)),
        lower=float(prods.min()),
        upper=float(prods.max()),
        window=(kmin, kmax),
        d=d,
        sign=sign,
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
        np.array(pos), np.array(neg), np.array(rp), np.array(rn),
        "csv", 0.0,
    )
