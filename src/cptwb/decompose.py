"""Rank-bounded decompositions of states and block matrices.

Three constructions, plus a verifier for their common block form:

``schur_horn_equalize``
    An explicit real-orthogonal rotation R making R·diag(λ)·Rᵀ have
    constant diagonal, built from at most d−1 two-dimensional rotations
    (max-vs-min diagonal pivot, each rotation finishing one entry exactly).

``horn_vectors``
    Any d×d density matrix A equals (1/d) Σ_m x_m x_m† with *unit* vectors
    x_m = √d·U·B·e_m where U = Q·Rᵀ and B = (R·Λ·Rᵀ)^{1/2}; columns of a
    constant-diagonal PSD square root have equal norms, which is exactly
    the Schur-Horn step above.

``szarek_split``
    A PSD 2×2-block matrix A (blocks d1×d1) splits as A = (B₁+B₂)/2 with
    each B_m PSD of rank ≤ d1 and *the same diagonal blocks as A*:
    with W = A₁₁^{−1/2}·A₁₂·A₂₂^{−1/2} (pseudo-inverse square roots), a
    contraction, write its singular values as cos θ_j and replace them by
    the phases e^{±iθ_j}; the resulting unitaries W_{1,2} give

        B_m = D^{1/2} [[I, W_m], [W_m†, I]] D^{1/2},  D = diag(A₁₁, A₂₂).

    Applied to the Choi matrix of a qubit-output channel (output leg as
    the block grid), this splits the channel into an even mixture of two
    maps with Choi rank ≤ d_in (``szarek_split_choi``).

``verify_ar4``
    Checks the combined block form: A (a d2×d2 grid of d1×d1 blocks,
    diagonal-block sum M) against factors X_1..X_{d2} of shape (d1·d2, d1)
    with A = (1/d2) Σ_m X_m X_m† and Σ_j X_jm X_jm† = M for every m.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg as la
from . import channels as chan

__all__ = [
    "BlockMatrix",
    "Decomposition",
    "AR4Report",
    "SUPPORT_TOL",
    "schur_horn_equalize",
    "horn_vectors",
    "szarek_split",
    "szarek_split_choi",
    "verify_ar4",
    "decomposition_to_json",
]

#: ``szarek_split`` needs the off-diagonal block supported on the diagonal
#: blocks' supports: ``P₁₁·A₁₂·P₂₂`` may miss ``A₁₂`` by at most this times
#: the largest entry of A.
SUPPORT_TOL = 1e-8


@dataclass(frozen=True)
class BlockMatrix:
    """A (d1·d2)×(d1·d2) matrix viewed as a d2×d2 grid of d1×d1 blocks."""

    d1: int
    d2: int
    matrix: np.ndarray

    def __post_init__(self):
        m = la.as_matrix(self.matrix)
        n = self.d1 * self.d2
        if m.shape != (n, n):
            raise la.ShapeError(
                f"block matrix shape {m.shape} != ({n}, {n})"
            )
        object.__setattr__(self, "matrix", m)

    def block(self, j: int, k: int) -> np.ndarray:
        d1 = self.d1
        return self.matrix[j * d1 : (j + 1) * d1, k * d1 : (k + 1) * d1]

    @property
    def diagonal_block_sum(self) -> np.ndarray:
        return sum(self.block(j, j) for j in range(self.d2))


@dataclass(frozen=True)
class Decomposition:
    """Terms with uniform weights and a common rank bound.

    ``factors`` holds the X_m with term = X_m X_m†; they feed verify_ar4.
    """

    terms: tuple
    weights: tuple
    rank_bound: int
    factors: tuple


@dataclass(frozen=True)
class AR4Report:
    """Residuals for the combined block decomposition form."""

    ok: bool
    reconstruction_residual: float
    term_residuals: tuple
    ranks: tuple
    rank_bound: int


def schur_horn_equalize(eigvals) -> np.ndarray:
    """Rotation R (real orthogonal) with diag(R·diag(λ)·Rᵀ) constant.

    Pivots the largest remaining diagonal entry against the smallest and
    solves the 2×2 rotation angle that lands the larger one exactly on
    the mean; at most d−1 rotations, each finishing one index for good
    (finished indices are never touched again, and the unfinished pool
    keeps mean t, so a valid pivot always exists).  A diagonal left more
    than 1e-10 (relative) off the mean raises ``RuntimeError``.
    """
    lam = np.asarray(eigvals, dtype=float).reshape(-1)
    d = lam.size
    if d == 0:
        raise ValueError("empty eigenvalue list")
    t = lam.sum() / d
    scale = max(np.abs(lam).max(), 1.0)

    c_mat = np.diag(lam.astype(float))
    r_acc = np.eye(d)
    unfixed = list(range(d))

    for _ in range(d - 1):
        diag = np.array([c_mat[i, i] for i in unfixed])
        hi = unfixed[int(np.argmax(diag))]
        lo = unfixed[int(np.argmin(diag))]
        if c_mat[hi, hi] - c_mat[lo, lo] <= 1e-15 * scale:
            break
        alpha = c_mat[hi, hi]
        gamma = c_mat[lo, lo]
        beta = c_mat[hi, lo]

        # (γ−t)·u² − 2β·u + (α−t) = 0 for u = tan(angle); roots have
        # opposite signs (product (α−t)/(γ−t) ≤ 0), take the smaller |u|.
        a, b, c = gamma - t, -2.0 * beta, alpha - t
        if abs(a) <= 1e-300:
            if abs(b) <= 1e-300:
                unfixed.remove(hi)
                continue
            u = -c / b
        else:
            disc = b * b - 4.0 * a * c
            disc = max(disc, 0.0)
            root = np.sqrt(disc)
            q = -(b + np.copysign(root, b)) / 2.0
            candidates = []
            if abs(a) > 0:
                candidates.append(q / a)
            if abs(q) > 0:
                candidates.append(c / q)
            u = min(candidates, key=abs)
        cth = 1.0 / np.sqrt(1.0 + u * u)
        sth = u * cth

        # Rotate rows/cols (hi, lo): new row hi = c·hi − s·lo, etc.
        row_hi = cth * c_mat[hi, :] - sth * c_mat[lo, :]
        row_lo = sth * c_mat[hi, :] + cth * c_mat[lo, :]
        c_mat[hi, :], c_mat[lo, :] = row_hi, row_lo
        col_hi = cth * c_mat[:, hi] - sth * c_mat[:, lo]
        col_lo = sth * c_mat[:, hi] + cth * c_mat[:, lo]
        c_mat[:, hi], c_mat[:, lo] = col_hi, col_lo

        r_hi = cth * r_acc[hi, :] - sth * r_acc[lo, :]
        r_lo = sth * r_acc[hi, :] + cth * r_acc[lo, :]
        r_acc[hi, :], r_acc[lo, :] = r_hi, r_lo

        c_mat[hi, hi] = t  # exact by construction; stamp out roundoff
        unfixed.remove(hi)

    dev = max(abs(c_mat[i, i] - t) for i in range(d))
    if dev > 1e-10 * scale:
        raise RuntimeError(f"diagonal equalization stalled at deviation {dev:.3e}")
    return r_acc


def horn_vectors(a) -> list[np.ndarray]:
    """Decompose a density matrix as an average of unit-vector projectors.

    Returns d unit vectors x_m with A = (1/d) Σ_m x_m x_m†; a maximally
    mixed input yields an orthonormal basis, a pure state returns d
    copies of its vector (up to phase).
    """
    w, q = la._spectrum(la.as_matrix(a), psd=True, what="density matrix")
    w, q = w[::-1], la._canonical_phases(q[:, ::-1])
    tr = float(w.sum())
    if abs(tr - 1.0) > 1e-8:
        raise ValueError(f"horn_vectors needs trace 1, got {tr:.6f}")
    d = len(w)

    # C = R diag(w) Rᵀ has the constant diagonal 1/d; its square root B comes
    # from the same spectrum, as R diag(√w) Rᵀ on the support
    r = schur_horn_equalize(w)
    b = (r * la._support_power(w, 0.5)) @ r.T
    u = q @ r.T.astype(np.complex128)
    xb = np.sqrt(d) * (u @ b)
    return [xb[:, m].copy() for m in range(d)]


def szarek_split(block, d1: int | None = None) -> Decomposition:
    """Split a PSD 2×2-block matrix into two rank-≤d1 PSD halves.

    Accepts a :class:`BlockMatrix` with d2 = 2 or a raw matrix plus
    ``d1``.  Both output terms keep A's diagonal blocks exactly, so any
    constraint carried by those blocks (e.g. trace preservation of a Choi
    matrix) survives the split.
    """
    if isinstance(block, BlockMatrix):
        if block.d2 != 2:
            raise la.ShapeError("szarek_split needs a 2×2 block grid")
        a, d1 = block.matrix, block.d1
    else:
        if d1 is None:
            raise ValueError("pass a BlockMatrix or a matrix together with d1")
        a = la.as_matrix(block)
        if a.shape != (2 * d1, 2 * d1):
            raise la.ShapeError(
                f"matrix shape {a.shape} incompatible with d1={d1}"
            )
    # the one Hermiticity check: after it, A, its diagonal blocks and each
    # term [[A₁₁, X], [X†, A₂₂]] are exactly Hermitian
    a = la.check_hermitian(a, what="block matrix")
    la._psd_eigh(a, "block matrix")  # PSD gate
    a12 = a[:d1, d1:]
    scale = max(float(np.abs(a).max()), 1e-300)

    # one clamped spectrum and one support mask per diagonal block give its
    # support projector and its -1/2 and 1/2 powers
    powers = []
    for blk in (a[:d1, :d1], a[d1:, d1:]):
        w, v = la._psd_eigh(blk, "diagonal block")
        support = la._support(w)
        powers.append([la._pseudo_power(w, v, x, support) for x in (0.0, -0.5, 0.5)])
    (p11, r11, s11), (p22, r22, s22) = powers
    resid = float(np.abs(p11 @ a12 @ p22 - a12).max())
    if resid > SUPPORT_TOL * scale:
        raise ValueError(
            "off-diagonal block is not supported on the diagonal-block "
            f"supports (residual {resid:.3e}); input is degenerate"
        )

    u, s, vh = np.linalg.svd(r11 @ a12 @ r22)
    theta = np.arccos(np.clip(s, 0.0, 1.0))  # a contraction up to roundoff

    terms, factors = [], []
    for sgn in (1.0, -1.0):
        wm = (u * np.exp(sgn * 1j * theta)) @ vh
        off = s11 @ wm @ s22
        b = a.copy()
        b[:d1, d1:] = off
        b[d1:, :d1] = la.dagger(off)
        x = np.empty((2 * d1, d1), dtype=np.complex128)
        x[:d1] = s11
        x[d1:] = s22 @ la.dagger(wm)
        terms.append(b)
        factors.append(x)
    return Decomposition(
        terms=tuple(terms),
        weights=(0.5, 0.5),
        rank_bound=d1,
        factors=tuple(factors),
    )


def _swap_legs(m: np.ndarray, da: int, db: int) -> np.ndarray:
    """Reorder a (A⊗B)-indexed matrix to (B⊗A)."""
    t = m.reshape(da, db, da, db)
    return t.transpose(1, 0, 3, 2).reshape(da * db, da * db)


def szarek_split_choi(choi: chan.ChoiMatrix) -> tuple[chan.ChoiMatrix, chan.ChoiMatrix]:
    """Split a qubit-output channel into two Choi-rank-≤d_in halves.

    The Choi matrix is reordered so the 2-dimensional *output* leg forms
    the block grid (its diagonal blocks then encode trace preservation),
    split, and reordered back; each half is again a valid Choi matrix and
    the original channel is their even mixture.
    """
    if choi.d_out != 2:
        raise la.ShapeError("szarek_split_choi needs a qubit-output channel")
    out_major = _swap_legs(choi.matrix, choi.d_in, 2)
    dec = szarek_split(out_major, d1=choi.d_in)
    halves = []
    for term in dec.terms:
        back = _swap_legs(term, 2, choi.d_in)
        halves.append(chan.ChoiMatrix(d_in=choi.d_in, d_out=2, matrix=back))
    return halves[0], halves[1]


def verify_ar4(a, factors, rank_bound: int, tol: float = 1e-8) -> AR4Report:
    """Verify the combined block-decomposition form (see module docstring).

    ``a`` is a BlockMatrix (or raw matrix with d2 = len(factors) inferred
    from the factor shapes); ``factors`` are the d2 matrices X_m of shape
    (d1·d2, d1); checks A = (1/d2) Σ X_m X_m†, the per-term diagonal-block
    sums against M = Σ_j A_jj, and numerical_rank(X_m) ≤ rank_bound.
    """
    facs = [la.as_matrix(x) for x in factors]
    d2 = len(facs)
    if d2 == 0:
        raise ValueError("no factors given")
    n, d1 = facs[0].shape
    if any(x.shape != (n, d1) for x in facs):
        raise la.ShapeError("factors must share one shape (d1*d2, d1)")
    if n != d1 * d2:
        raise la.ShapeError(
            f"factor height {n} != d1*d2 = {d1 * d2} (d1 from factor width)"
        )
    bm = a if isinstance(a, BlockMatrix) else BlockMatrix(d1=d1, d2=d2, matrix=a)
    if (bm.d1, bm.d2) != (d1, d2):
        raise la.ShapeError("block grid does not match the factor shapes")

    recon = sum(x @ la.dagger(x) for x in facs) / d2
    rec_resid = float(np.abs(recon - bm.matrix).max())

    m_target = bm.diagonal_block_sum
    term_residuals = []
    for x in facs:
        acc = np.zeros((d1, d1), dtype=np.complex128)
        for j in range(d2):
            blk = x[j * d1 : (j + 1) * d1, :]
            acc += blk @ la.dagger(blk)
        term_residuals.append(float(np.abs(acc - m_target).max()))

    ranks = tuple(la.numerical_rank(x) for x in facs)
    scale = max(float(np.abs(bm.matrix).max()), 1e-300)
    ok = (
        rec_resid <= tol * scale
        and all(r <= tol * scale for r in term_residuals)
        and all(r <= rank_bound for r in ranks)
    )
    return AR4Report(
        ok=bool(ok),
        reconstruction_residual=rec_resid,
        term_residuals=tuple(term_residuals),
        ranks=ranks,
        rank_bound=rank_bound,
    )


def decomposition_to_json(dec: Decomposition) -> dict:
    """Serialize terms, weights and factors (nested [re, im] pairs)."""
    return {
        "weights": [float(w) for w in dec.weights],
        "rank_bound": dec.rank_bound,
        "terms": [la.matrix_to_json(t) for t in dec.terms],
        "factors": [la.matrix_to_json(x) for x in dec.factors],
    }
