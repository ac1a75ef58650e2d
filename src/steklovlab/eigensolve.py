"""Generalized symmetric pencil B x = μ A x and spectral-tail diagnostics.

``A`` is the SPD energy matrix, ``B`` the (possibly sign-indefinite) boundary
weight matrix; the eigenvalues μ are the Rayleigh-quotient spectrum of
weight/energy.  B is boundary-supported, so at most nb of the n eigenvalues
are nonzero, nb being the number of nonzero rows of B (the weighted nodes);
the other n − nb are structural zeros.

``solve_dense`` condenses the pencil onto the nb weighted nodes: one sparse
LU of A with those nodes last, whose trailing block is the Cholesky factor of
the Schur complement S = A_bb − A_bi A_ii⁻¹ A_ib (the discrete
Dirichlet-to-Neumann map) and whose pivots are the one SPD check; the n × n
pencil is never formed densely.  A probe of S on four fixed vectors checks
the factor against the Schur complement applied through A_ii⁻¹.  It
eigendecomposes the nb × nb pencil (B_bb, S) and returns every nonzero pair
of both branches with residuals on that condensed pencil.  Its dense kernels
(triangular solves and products, the eigendecomposition) all come from
scipy.linalg: numpy and scipy each bundle an OpenBLAS with its own thread
pool, and a solve that alternates between them leaves one pool's workers
spinning against the other's call.
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
    "solve_dense",
    "counting",
    "tail_window",
    "tail_coefficient",
    "spectrum_to_csv",
]

DENSE_DIMENSION_CAP = 8000  # caps nb, the number of weighted nodes
SCHUR_PROBE_TOL = 1e-10  # relative gap ‖G GᵀZ − S Z‖ / ‖S Z‖ of the condensation
ZERO_THRESHOLD_REL = 1e-12
CONDITION_BOUND = 1e10  # largest estimated cond S = (1 / rcond G)² of a condensed energy


class EigensolveError(RuntimeError):
    """Pencil solve failed or was called outside its contract."""


@dataclass
class Spectrum:
    """Signed ratio spectrum, split by branch.

    ``positive`` is sorted descending; ``negative`` is sorted by magnitude
    descending (most negative first).  Residuals are ‖B_bb x_b − μ S x_b‖₂
    on the condensed pencil, for the S-normalized boundary eigenvector x_b of
    each retained pair.  ``boundary_rank`` is nb, the size of the condensed
    pencil, and ``schur_gap`` the relative probe gap of its condensation.
    """

    positive: np.ndarray
    negative: np.ndarray
    residuals_positive: np.ndarray
    residuals_negative: np.ndarray
    zero_threshold: float
    boundary_rank: int
    n_dropped: int = 0
    schur_gap: float = 0.0

    def branch(self, sign: str) -> np.ndarray:
        if sign == "+":
            return self.positive
        if sign == "-":
            return self.negative
        raise EigensolveError(f"unknown branch {sign!r}")


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


def _weighted_rows(B: sp.csr_matrix) -> np.ndarray:
    return np.asarray(np.abs(B).sum(axis=1)).ravel() > 0


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
    Before it is dropped, the first LU also gives the probe
    S Z = A_bb Z − A_bi A_ii⁻¹ (A_ib Z) on the fixed Z = cos(jk), j ≤ nb,
    k ≤ 4; the relative gap ‖G GᵀZ − S Z‖ / ‖S Z‖ (0 when nb = 0) checks G
    against it, both norms taken after one power-of-two scaling.  Returns G,
    the sparse B_bb and that gap.  Raises ``EigensolveError`` when A is not
    SPD, when LAPACK's estimate (1 / rcond G)² of cond S exceeds
    ``CONDITION_BOUND`` (the smaller pairs would be lost to rounding), when
    the gap exceeds ``SCHUR_PROBE_TOL``, or when nb exceeds
    ``DENSE_DIMENSION_CAP`` (a memory guard: the work arrays are nb × nb)."""
    n = A.shape[0]
    weighted = _weighted_rows(B)
    b = np.flatnonzero(weighted)
    i = np.flatnonzero(~weighted)
    nb, ni = len(b), len(i)
    if nb > DENSE_DIMENSION_CAP:
        raise EigensolveError(
            f"dense solve capped at {DENSE_DIMENSION_CAP} boundary unknowns (got {nb})"
        )
    Z = np.cos(np.outer(np.arange(1, nb + 1), np.arange(1, 5)))
    SZ = A[b][:, b] @ Z
    try:
        if ni:
            lu = _splu(A[i][:, i], "MMD_AT_PLUS_A")
            SZ -= A[b][:, i] @ lu.solve(A[i][:, b] @ Z)
            i = i[np.argsort(lu.perm_c)]  # perm_c sends node k to position perm_c[k]
            del lu
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
    if nb:  # Gᵀ is column-major and upper triangular: LAPACK reads G in place
        rcond = sla.lapack.dtrcon(G.T, norm="I", uplo="U")[0]
        with np.errstate(divide="ignore", over="ignore"):
            cond = float(np.float64(rcond) ** -2)
        if not cond <= CONDITION_BOUND:
            raise EigensolveError(
                f"condensed energy too ill-conditioned to resolve its pairs: cond estimate "
                f"{cond:.1e} exceeds {CONDITION_BOUND:.0e}"
            )
    gap = 0.0
    if nb:  # scaled so that max|SZ| < 1: no square in either norm overflows
        e = -np.frexp(np.abs(SZ).max())[1]
        R = np.ldexp(_schur_apply(G, Z) - SZ, e)
        gap = float(np.linalg.norm(R) / np.linalg.norm(np.ldexp(SZ, e)))
    if not gap <= SCHUR_PROBE_TOL:  # a NaN gap fails too
        raise EigensolveError(
            f"condensed factor misses the Schur complement: probe gap {gap:.1e} "
            f"exceeds {SCHUR_PROBE_TOL:.0e}"
        )
    return G, B[b][:, b], gap


def _schur_apply(G, X):
    """S X = G (Gᵀ X) by two triangular products.  G is row-major, so BLAS
    reads it in place as its transpose, the upper-triangular Gᵀ."""
    trmm = sla.get_blas_funcs("trmm", (G,))
    return trmm(1.0, G.T, trmm(1.0, G.T, X), trans_a=1, overwrite_b=1)


def _condensed_eigh(G, B_bb):
    """Eigenvalues and S-normalized boundary eigenvectors of the condensed
    pencil (B_bb, G Gᵀ), via the symmetric matrix G⁻¹B_bbG⁻ᵀ.  The
    eigendecomposition is LAPACK's divide-and-conquer ``dsyevd`` through
    scipy's ``evd`` driver, the routine numpy's ``eigh`` calls; scipy's
    default ``evr`` (``dsyevr``) is a different algorithm and would move the
    eigenvalues at roundoff.  A weight so large against the energy that the
    matrix overflows raises ``EigensolveError``."""
    Y = sla.solve_triangular(G, B_bb.toarray(), lower=True)
    C = sla.solve_triangular(G, Y.T, lower=True, check_finite=False)
    with np.errstate(over="ignore", invalid="ignore"):
        C = 0.5 * (C + C.T)
    if not np.isfinite(C).all():
        raise EigensolveError(
            "condensed pencil matrix overflows: the weight is too large for the energy"
        )
    w, V = sla.eigh(C, driver="evd", check_finite=False)
    return w, sla.solve_triangular(G, V, lower=True, trans="T")


def solve_dense(A, B) -> Spectrum:
    """Every nonzero pencil eigenvalue of both branches, via the
    boundary-condensed pencil.

    With the Cholesky factor S = GGᵀ of the condensed energy from
    ``_condense``, a symmetric eigendecomposition of G⁻¹B_bbG⁻ᵀ gives every
    nonzero μ.  Each residual ‖B_bb x_b − μ G(Gᵀx_b)‖ is taken on the
    condensed pencil, so it also covers the last triangular solve.  The
    n − nb structural zeros count in ``n_dropped``.  Raises
    ``EigensolveError`` as ``_condense`` and ``_condensed_eigh`` do, and when
    a residual overflows."""
    A = sp.csr_matrix(A, dtype=float)
    B = sp.csr_matrix(B, dtype=float)
    G, B_bb, gap = _condense(A, B)
    w, Xb = _condensed_eigh(G, B_bb)
    with np.errstate(over="ignore", invalid="ignore"):
        R = _schur_apply(G, Xb)
        R *= w
        np.subtract(B_bb @ Xb, R, out=R)
        res = np.linalg.norm(R, axis=0)
    if not np.isfinite(res).all():
        raise EigensolveError("pencil residuals overflow: the weight is too large for the energy")
    zero_threshold = ZERO_THRESHOLD_REL * float(np.abs(w).max(initial=0.0))
    spec = _split_branches(w, res, zero_threshold, len(G))
    spec.n_dropped += A.shape[0] - len(G)
    spec.schur_gap = gap
    return spec


def counting(spec: Spectrum, lam: float, sign: str = "+") -> int:
    """n±(λ): eigenvalues of the branch with |μ| ≥ λ (closed count)."""
    if not lam > 0:  # a NaN threshold fails too
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
