"""Rank-bounded decompositions of states and block matrices.

Two constructions, plus a verifier for their common block form.  Every
function takes plain matrices: a block matrix is a d2×d2 grid of d1×d1
blocks, legs ordered (grid ⊗ block) as :func:`linalg.kron` makes them, and
the block size d1 is always given (``szarek_split``) or fixed by the
factors (``verify_ar4``).

``horn_vectors``
    Any d×d density matrix A = Q·diag(w)·Q† equals (1/d) Σ_m x_m x_m† with
    *unit* vectors x_m = Q·diag(√w)·f_m, where f_m = (e^{2πi·jm/d})_j is a
    column of the DFT matrix F: every entry of F has modulus one, so
    ‖x_m‖² = Σ_j w_j = Tr A = 1, and F·F† = d·I gives Σ_m x_m x_m† = d·A.

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

Eigensolves: ``horn_vectors`` makes one ``eigh`` and reads its vectors; its
DFT matrix F is built once per d and kept read-only in a cache of the 8
most recent d (``_dft``): building it takes an outer product, a mod and a
complex exp, about 6 µs at d = 5, two thirds of the eigensolve.  A
split makes one vector eigensolve, a stacked ``eigh`` of both diagonal
blocks, whose spectra give P, D^{−1/2} and D^{1/2}; its PSD gate on A reads
eigenvalues only (``eigvalsh``, or the cached Choi spectrum in
``szarek_split_choi``), and A's top eigenvalue sets the floor the block
spectra are clamped against.

``verify_ar4``
    Checks the combined block form: A (a d2×d2 grid of d1×d1 blocks,
    diagonal-block sum M) against factors X_1..X_{d2} of shape (d1·d2, d1)
    with A = (1/d2) Σ_m X_m X_m† and Σ_j X_jm X_jm† = M for every m.  Both
    block sums are partial traces over the grid leg,
    ``linalg.partial_trace(·, (d2, d1), keep=1)`` of A and of X_m X_m†.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import linalg as la
from . import channels as chan

__all__ = [
    "Decomposition",
    "AR4Report",
    "SUPPORT_TOL",
    "TRACE_TOL",
    "AR4_TOL",
    "horn_vectors",
    "szarek_split",
    "szarek_split_choi",
    "verify_ar4",
]

#: ``szarek_split`` needs the off-diagonal block supported on the diagonal
#: blocks' supports: ``P₁₁·A₁₂·P₂₂`` may miss ``A₁₂`` by at most this times
#: the largest entry of A.
SUPPORT_TOL = 1e-8

#: ``horn_vectors`` refuses a density matrix whose eigenvalues sum to more
#: than this away from 1.
TRACE_TOL = 1e-8

#: ``verify_ar4``'s fixed bound on its residuals, relative to the largest
#: entry of A.
AR4_TOL = 1e-8


@dataclass(frozen=True)
class Decomposition:
    """The two halves of a split, A = (term₁ + term₂)/2, each of rank ≤ d1.

    ``factors`` holds the X_m with term = X_m X_m†; they feed verify_ar4.
    """

    terms: tuple
    factors: tuple


@dataclass(frozen=True)
class AR4Report:
    """Residuals for the combined block decomposition form."""

    ok: bool
    reconstruction_residual: float
    term_residuals: tuple
    ranks: tuple
    rank_bound: int


def horn_vectors(a) -> list[np.ndarray]:
    """Decompose a density matrix as an average of unit-vector projectors.

    Returns the d unit vectors x_m = Q·diag(√w)·f_m of the DFT frame (see
    the module docstring) with A = (1/d) Σ_m x_m x_m†, eigenvalues w in
    descending order.  A maximally mixed input yields an orthonormal basis,
    a pure state d copies of its vector; kernel eigenvalues of roundoff size
    ε enter as √ε, which moves no norm and no reconstruction beyond ε.  The
    trace must be 1 within ``TRACE_TOL``; a 0×0 matrix has trace 0.
    """
    w, q = la._spectrum(la.as_matrix(a), psd=True, what="density matrix")
    w = w[::-1]
    tr = float(w.sum())
    if abs(tr - 1.0) > TRACE_TOL:
        raise ValueError(
            f"horn_vectors needs trace 1 within TRACE_TOL = {TRACE_TOL:g}, got {tr!r}"
        )
    x = (la._canonical_phases(q[:, ::-1]) * np.sqrt(w)) @ _dft(len(w))
    return list(x.T.copy())


@lru_cache(maxsize=8)
def _dft(d: int) -> np.ndarray:
    """The read-only d×d DFT matrix F_jm = e^{2πi·jm/d}, jm reduced mod d to
    keep the phases exact."""
    r = np.arange(d)
    f = np.exp((2j * np.pi / d) * (np.outer(r, r) % d))
    f.flags.writeable = False
    return f


def szarek_split(a, d1: int) -> Decomposition:
    """Split a PSD 2×2-block matrix (blocks d1×d1) into two rank-≤d1 PSD
    halves.

    Both output terms keep A's diagonal blocks exactly, so any constraint
    carried by those blocks (e.g. trace preservation of a Choi matrix)
    survives the split.  ``d1`` must be a positive integer and A of shape
    (2·d1, 2·d1).
    """
    if isinstance(d1, bool) or not isinstance(d1, (int, np.integer)) or d1 < 1:
        raise ValueError(f"d1 must be a positive integer, got {d1!r}")
    a = la.as_matrix(a)
    if a.shape != (2 * d1, 2 * d1):
        raise la.ShapeError(f"matrix shape {a.shape} incompatible with d1={d1}")
    # the one Hermiticity check: after it, A, its diagonal blocks and each
    # term [[A₁₁, X], [X†, A₂₂]] are exactly Hermitian
    a = la.check_hermitian(a, what="block matrix")
    # the PSD gate reads eigenvalues only; its top sets the blocks' floor
    w = la._psd_clamp(np.linalg.eigvalsh(a), "block matrix")
    return _split(a, d1, w[-1])


def _split(a: np.ndarray, d1: int, top: float) -> Decomposition:
    """:func:`szarek_split` of an exactly Hermitian PSD matrix with largest
    eigenvalue ``top``, unchecked.

    The diagonal-block spectra are clamped against A's floor: by interlacing
    no block eigenvalue lies below A's least one, while a block whose own top
    is zero would have a floor of zero and reject roundoff below it.
    """
    a12 = a[:d1, d1:]
    scale = max(float(np.abs(a).max()), 1e-300)

    # one eigensolve, one clamped spectrum and one support mask for both
    # diagonal blocks (read through a view of A) give their support
    # projectors and -1/2 and 1/2 powers, all six from one product
    blocks = a.reshape(2, d1, 2, d1).diagonal(axis1=0, axis2=2).transpose(2, 0, 1)
    w, v = np.linalg.eigh(blocks)
    w = la._psd_clamp(w, "diagonal block", top)
    support = la._support(w)
    ws = w[support]
    pw = np.zeros((3,) + w.shape)  # zero off the support for every exponent
    pw[0] = support  # weight 1 on the support: the projectors
    pw[1][support] = ws**-0.5
    pw[2][support] = ws**0.5
    powers = la._from_spectrum(pw, v)
    # P₁₁·A₁₂·P₂₂ and W = R₁₁·A₁₂·R₂₂ as one stack
    supported, w12 = powers[:2, 0] @ a12 @ powers[:2, 1]
    resid = float(np.abs(supported - a12).max())
    if resid > SUPPORT_TOL * scale:
        raise ValueError(
            "off-diagonal block is not supported on the diagonal-block "
            f"supports (residual {resid:.3e}); input is degenerate"
        )

    s11, s22 = powers[2]
    u, s, vh = np.linalg.svd(w12)
    # singular values are >= 0, and W is a contraction up to roundoff
    phase = np.exp(1j * np.arccos(np.minimum(s, 1.0)))
    # the unitaries W_m = U·diag(e^{±iθ})·V†, both terms and both factors
    # as stacks over m
    wm = np.empty((2, d1, d1), dtype=np.complex128)
    np.multiply(u, phase, out=wm[0])
    np.multiply(u, np.conj(phase), out=wm[1])
    wm = wm @ vh
    off = s11 @ wm @ s22
    terms = np.array((a, a))
    terms[:, :d1, d1:] = off
    terms[:, d1:, :d1] = np.conj(off).swapaxes(-1, -2)
    factors = np.empty((2, 2 * d1, d1), dtype=np.complex128)
    factors[:, :d1] = s11
    factors[:, d1:] = s22 @ np.conj(wm).swapaxes(-1, -2)
    return Decomposition(terms=tuple(terms), factors=tuple(factors))


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
    # the permuted matrix is exactly Hermitian, and the Choi spectrum is its own
    w = la._psd_clamp(choi.spectrum[0].copy(), "block matrix")
    dec = _split(_swap_legs(choi.matrix, choi.d_in, 2), choi.d_in, w[-1])
    halves = []
    for term in dec.terms:
        back = _swap_legs(term, 2, choi.d_in)
        halves.append(chan.ChoiMatrix(d_in=choi.d_in, d_out=2, matrix=back))
    return halves[0], halves[1]


def verify_ar4(a, factors, rank_bound: int) -> AR4Report:
    """Verify the combined block-decomposition form (see module docstring).

    ``factors`` are the d2 matrices X_m of shape (d1·d2, d1), which fix the
    grid: d1 is their width and d2 their number; ``a`` is a matrix of shape
    (d1·d2, d1·d2).  Checks A = (1/d2) Σ X_m X_m† and each term's block sum
    Σ_j X_jm X_jm† against M = Σ_j A_jj, each within the fixed ``AR4_TOL``
    times the largest entry of A, and numerical_rank(X_m) ≤ rank_bound.
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
    a = la.as_matrix(a)
    if a.shape != (n, n):
        raise la.ShapeError(f"matrix shape {a.shape} != ({n}, {n}) of the factor grid")

    grams = [x @ la.dagger(x) for x in facs]
    rec_resid = float(np.abs(sum(grams) / d2 - a).max())
    # block sums are partial traces over the grid leg, which comes first
    m_target = la.partial_trace(a, (d2, d1), keep=1)
    term_residuals = tuple(
        float(np.abs(la.partial_trace(g, (d2, d1), keep=1) - m_target).max())
        for g in grams
    )

    ranks = tuple(la.numerical_rank(x) for x in facs)
    scale = max(float(np.abs(a).max()), 1e-300)
    ok = (
        rec_resid <= AR4_TOL * scale
        and all(r <= AR4_TOL * scale for r in term_residuals)
        and all(r <= rank_bound for r in ranks)
    )
    return AR4Report(
        ok=bool(ok),
        reconstruction_residual=rec_resid,
        term_residuals=term_residuals,
        ranks=ranks,
        rank_bound=rank_bound,
    )
