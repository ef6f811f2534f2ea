"""Dense Hermitian linear algebra kernel, and the one tolerance policy.

Every bound the package checks against is a named module constant,
defined once; none can be set per call.  Three are the only rank, PSD and
Hermiticity cutoffs in ``linalg``, ``channels``, ``decompose``, ``entropy``
and ``zoo``, and apply everywhere:

* ``RANK_TOL`` (1e-8): an eigen- or singular value at or below ``RANK_TOL``
  times the largest of its spectrum is an exact zero.  ``_support`` is the
  only mask built from it, so Choi ranks, minimal Kraus sets, numerical
  ranks, pseudo-powers, trace powers and Rényi-0 ranks count one support.
  The exception is ``optimize``'s search at p > 1 (``optimize._terms``):
  its exponents are positive, so w^a vanishes with w, while at p = 1.01 a
  value at the cutoff still weighs (1e-8)^0.01 ≈ 0.83 in Γ^{p−1}.  Its p = 1
  weights log(max(w, c)/c), c = ``RANK_TOL``·w_max, are zero exactly off it.
* ``PSD_CLAMP`` (1e-12): a nominally PSD matrix's eigenvalues that dip
  below zero by roundoff are clamped to zero, and one below the floor is an
  error.  There is one floor, ``-PSD_CLAMP * max(top, 0)`` relative to the
  largest eigenvalue ``top`` (``_psd_floor``); ``_psd_clamp`` applies it to
  every PSD spectrum in the package, and ``channels.validate_cpt`` reports
  against it instead of raising.
* ``HERM_TOL`` (1e-12): a matrix is Hermitian when ``max|m - m†|`` is at
  most ``HERM_TOL`` times its largest entry.

Each of the others belongs to one check:

* ``channels.TP_TOL`` (1e-10): the bound on max|Σ A_k†A_k − I| that
  ``channels.validate_cpt`` checks, ``entropy.estimate_smin_p`` requires
  and ``cptwb info`` reports.
* ``channels.DEGRADING_TOL`` and ``decompose.AR4_TOL`` (1e-8 each): the
  residual bounds of ``channels.verify_degrading`` and, relative to the
  largest entry of A, of ``decompose.verify_ar4``.
* ``optimize.VALUE_TOL`` (1e-12): an *absolute* bound on trace powers,
  which every optimizer report lists as ``config["value_tol"]``;
  ``optimize.VIOLATION_MARGIN`` (1e-7), the relative margin of a violation.
* Algorithm thresholds: ``decompose.SUPPORT_TOL``, ``decompose.TRACE_TOL``
  and ``channels.MAX_HALVINGS``.

Matrices are plain complex128 ``numpy`` arrays.  Matrix powers of PSD
matrices are pseudo-powers: the kernel (numerically rank-deficient part) is
mapped to zero for every exponent, including negative ones.  Hermitian
eigensolves go through private helpers, which also take stacks
``(..., n, n)``: ``_hermitian_part`` (the Hermiticity check and the
symmetrization) and ``_psd_clamp`` (the PSD floor and the clamp);
``_spectrum`` chains them around ``eigh``.  ``_hermitian_part`` is also the
one finiteness check: a matrix with a NaN or infinite entry raises
``ValueError`` there, before its Hermiticity is tested, and
``numerical_rank`` checks its input the same way.  The one exception is a
channel output in ``optimize``'s search: a Gram matrix, Hermitian by
construction, symmetrized by ``_halves`` as ``_hermitian_part`` does it,
and tested for finiteness on its trace.  ``eigh`` runs where
eigenvectors are read.  Three eigensolves read values only and take
``eigvalsh``: ``psd_eigvals`` (read by ``trace_power``, ``schatten_p`` and
``entropy``'s von Neumann and Rényi entropies), the PSD gate of
``decompose.szarek_split`` (its top eigenvalue is the ``top`` that sets the
floor of the diagonal blocks) and the stall confirmation in ``optimize``;
``_psd_clamp`` clamps the first two.  A symmetrized matrix is
Hermitian to the last bit, and so is a matrix assembled from one (a
principal block, [[A, X], [X†, B]], a leg permutation): it is not checked
again.  A ``channels.ChoiMatrix`` is checked and symmetrized when it is
built and decomposed once, on first use; a channel's Choi matrix, and its
transfer matrix (``KrausChannel.transfer``, through which
``channels.apply_adjoint`` applies Φ̂, on a product through its two
factors' transfer matrices), are built once, from read-only copies of its
Kraus operators.  Choi readers clamp a copy of that spectrum;
``channels.validate_cpt`` and ``cptwb decompose`` read its least
eigenvalue before the clamp.

On the small matrices this package works with, numpy's per-call overhead,
not LAPACK, sets the price of an eigensolve.  On a 4×4 matrix (2-CPU VM,
numpy 2.4) ``eigh`` takes about 9.5 µs, ``_hermitian_part`` 8 µs (the
halving, two moduli, two reductions and the sum), ``_canonical_phases``
12.6 µs (a reduction and an ``argmax`` find each column's lead entry, which
is gathered by direct indexing in one path for matrices and stacks; then a
``hypot`` and two divisions) and ``_psd_clamp`` 1 µs.  An array test such as
``any`` or ``all`` costs about 2 µs even on one element, so a single matrix
(``ndim`` 2) or spectrum (``ndim`` 1) is tested for finiteness,
Hermiticity and the PSD floor with scalar compares, and a stack with one
array test for all its matrices.  The two branches give the same bits, and
a faulty matrix raises the same error with the same numbers in a stack as
alone.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "RANK_TOL",
    "PSD_CLAMP",
    "HERM_TOL",
    "ShapeError",
    "NotHermitianError",
    "NotPSDError",
    "as_matrix",
    "dagger",
    "check_hermitian",
    "herm_eig",
    "psd_eigvals",
    "psd_power",
    "kron",
    "partial_trace",
    "numerical_rank",
    "schatten_p",
    "trace_power",
    "matrix_to_json",
    "matrix_from_json",
]

#: Relative singular-value cutoff for all rank decisions.
RANK_TOL = 1e-8

#: Eigenvalues of PSD inputs more negative than this (times the max
#: eigenvalue) are a hard error instead of being clamped to zero.
PSD_CLAMP = 1e-12

#: Relative tolerance for accepting a matrix as Hermitian.
HERM_TOL = 1e-12


class ShapeError(ValueError):
    """Input has the wrong shape (non-square, dim mismatch, ...)."""


class NotHermitianError(ValueError):
    """Matrix deviates from its conjugate transpose beyond tolerance."""


class NotPSDError(ValueError):
    """Matrix has a genuinely negative eigenvalue (beyond the clamp window)."""


def as_matrix(m) -> np.ndarray:
    """Coerce input to a 2-D complex128 array, rejecting other shapes."""
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim != 2:
        raise ShapeError(f"expected a 2-D matrix, got ndim={a.ndim}")
    return a


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return np.conj(np.asarray(m)).T


def _outer(psi: np.ndarray) -> np.ndarray:
    """ψψ† of a vector ψ, or of each row ψ of a stack ``(..., d)``."""
    psi = np.asarray(psi)
    return psi[..., :, None] * np.conj(psi)[..., None, :]


#: ½ as a 0-d array: numpy multiplies by it faster than by a Python float.
_HALF = np.array(0.5)


def _halves(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``a/2``, a new array, and ``a†/2`` of a complex128 matrix or stack
    ``(..., n, n)``; ``half += hh`` then makes the symmetrized ``a/2 + a†/2``.

    ``a`` is halved as its real view, which is exact: a complex product
    would turn an infinite entry into NaN."""
    half = (np.ascontiguousarray(a).view(np.float64) * _HALF).view(np.complex128)
    return half, np.conj(half).swapaxes(-1, -2)


def _hermitian_part(a: np.ndarray, what: str) -> np.ndarray:
    """Check a matrix or a stack ``(..., n, n)`` of them for finiteness and
    Hermiticity (each against its own largest entry) and return
    ``a/2 + a†/2``.

    Both the deviation and the sum are taken from the :func:`_halves`, so an
    entry near the largest double does not overflow; halving is exact, so
    the result and the verdict are those of ``(a + a†) / 2`` whenever the
    halves are normal numbers, and an infinite entry is still infinite at
    the finiteness check.  A single matrix's two tests are scalar compares."""
    half, hh = _halves(a)
    one = half.ndim == 2
    scale = np.abs(half).max(axis=(-2, -1), initial=0.0)
    _require_finite(scale, what)
    dev = np.abs(half - hh).max(axis=(-2, -1), initial=0.0)
    bad = dev > HERM_TOL * scale  # an all-zero matrix has dev == 0: not bad
    if bad if one else bad.any():
        i = np.flatnonzero(bad)[0]
        raise NotHermitianError(
            f"{what} is not Hermitian: max|m - m†|/2 = "
            f"{dev.flat[i]:.3e} > {HERM_TOL:.1e} * max|m|/2 = "
            f"{HERM_TOL:.1e} * {scale.flat[i]:.3e}"
        )
    half += hh
    return half


def _require_finite(x: np.ndarray, what: str) -> None:
    """Raise ``ValueError`` unless every entry of ``x`` is finite.  A scalar
    is tested with ``math.isfinite``: an array test costs microseconds."""
    if not (math.isfinite(x) if x.ndim == 0 else np.isfinite(x).all()):
        raise ValueError(f"{what} has a non-finite entry")


def check_hermitian(m, what: str = "matrix") -> np.ndarray:
    """Validate Hermiticity and return the exactly symmetrized matrix.

    Symmetrizing after the check means downstream eigensolves see a matrix
    that is Hermitian to the last bit, so their output is deterministic.
    """
    a = as_matrix(m)
    if a.shape[0] != a.shape[1]:
        raise ShapeError(f"{what} must be square, got shape {a.shape}")
    return _hermitian_part(a, what)


def _spectrum(m, psd: bool = False, what: str = "matrix") -> tuple[np.ndarray, np.ndarray]:
    """``(w, v)`` of a checked and symmetrized matrix or stack ``(..., n, n)``,
    eigenvalues *ascending*; with ``psd``, clamped by :func:`_psd_clamp`."""
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ShapeError(f"{what} must be square, got shape {a.shape}")
    w, v = np.linalg.eigh(_hermitian_part(a, what))
    return (_psd_clamp(w, what) if psd else w), v


def _psd_floor(top):
    """The one PSD floor: ``-PSD_CLAMP`` times the largest eigenvalue ``top``,
    zero when ``top`` is not positive."""
    return -PSD_CLAMP * np.maximum(top, 0.0)


def _psd_clamp(w: np.ndarray, what: str, top=None) -> np.ndarray:
    """Clamp ascending spectra ``(..., n)`` in place and return them.  An
    eigenvalue below the :func:`_psd_floor` of ``top`` raises
    :class:`NotPSDError`; the others below zero become zero.  ``top`` is each
    spectrum's own largest eigenvalue unless given: spectra of principal
    blocks are clamped against the floor of the whole matrix."""
    # spectra ascend: only a first eigenvalue can be negative
    if w.ndim == 1:  # one spectrum: scalar compares
        if len(w) and w[0] < 0.0:
            floor = _psd_floor(w[-1] if top is None else top)
            if w[0] < floor:
                raise _below_floor(what, w[0], floor)
    elif (w[..., :1] < 0.0).any():
        low = w[..., :1]
        floor = _psd_floor(w[..., -1:] if top is None else top)
        bad = low < floor
        if bad.any():
            i = np.flatnonzero(bad)[0]
            raise _below_floor(what, low.flat[i], np.broadcast_to(floor, low.shape).flat[i])
    np.maximum(w, 0.0, out=w)  # like np.clip(w, 0.0, None), -0.0 to 0.0 included
    return w


def _below_floor(what: str, low, floor) -> NotPSDError:
    """The error for an eigenvalue ``low`` below the PSD floor ``floor``."""
    return NotPSDError(
        f"{what} has negative eigenvalue {low:.3e} (clamp window {floor:.3e})"
    )


def _support(w: np.ndarray) -> np.ndarray:
    """Mask of the numerical support of spectra ``(..., n)``.

    Entries at or below ``RANK_TOL`` times their spectrum's largest entry
    (or zero, when none is positive) are exact zeros.  This is the one place
    the rank cutoff is applied.
    """
    return w > RANK_TOL * w.max(axis=-1, keepdims=True, initial=0.0)


def _support_power(w: np.ndarray, a: float) -> np.ndarray:
    """``w**a`` on the support of clamped spectra ``(..., n)``, zero off it
    for every exponent, negative ones included."""
    support = _support(w)
    pw = np.zeros_like(w)
    pw[support] = w[support] ** a
    return pw


def _from_spectrum(x: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``V diag(x) V†`` for eigenvalues ``x`` ``(..., n)`` and eigenvectors
    ``v`` ``(..., n, n)``; ``x`` may stack several weight sets on ``v``."""
    return (v * x[..., None, :]) @ np.conj(v).swapaxes(-1, -2)


def _first_significant(vecs: np.ndarray) -> np.ndarray:
    """Index of each column's first entry with modulus above 1e-12 times the
    column's largest, for stacks ``(..., n, k)``."""
    mags = np.abs(vecs)
    return (mags > 1e-12 * mags.max(axis=-2, keepdims=True)).argmax(axis=-2)


def _canonical_phases(vecs: np.ndarray) -> np.ndarray:
    """Fix each column's global phase: first significant entry positive real.

    The first component with modulus above 1e-12 times the column max is
    rotated onto the positive real axis.  Columns must be nonzero, as
    ``eigh`` eigenvectors are.  Works on stacks ``(..., n, k)``.  This is
    the deterministic tie-break used everywhere an eigenvector is reported.
    """
    *batch, n, k = vecs.shape
    m = math.prod(batch)
    # each column's lead entry, indexed directly in an (m, n, k) view
    first = _first_significant(vecs).reshape(m, k)
    lead = vecs.reshape(m, n, k)[np.arange(m)[:, None], first, np.arange(k)]
    lead = lead.reshape(*batch, 1, k)
    # hypot, like abs() of a complex scalar: the vectorized np.abs rounds
    # some moduli differently, and that would move the reported phases
    modulus = np.hypot(lead.real, lead.imag)
    return vecs / (lead / modulus)


def herm_eig(m) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecompose a Hermitian matrix.

    Returns ``(w, v)`` with eigenvalues ``w`` sorted descending and
    eigenvectors in the columns of ``v`` (``m @ v[:, i] = w[i] * v[:, i]``).
    Eigenvector phases are canonicalized (first significant component
    positive real) so repeated runs and degenerate subspaces come out
    deterministically on a given platform.  A 0×0 matrix gives empty
    ``(w, v)``.
    """
    w, v = _spectrum(as_matrix(m))
    if not len(w):  # no column whose phase to fix
        return w, v
    return w[::-1], _canonical_phases(v[:, ::-1])


def psd_eigvals(m, what: str = "matrix") -> np.ndarray:
    """Eigenvalues of a PSD matrix, descending, negatives clamped to zero.

    Raises :class:`NotPSDError` below the PSD floor (:func:`_psd_floor`).
    """
    return _psd_clamp(np.linalg.eigvalsh(check_hermitian(m, what)), what)[::-1]


def psd_power(m, a: float) -> np.ndarray:
    """Pseudo-power ``m^a`` of a PSD matrix on its numerical support.

    Eigenvalues at or below ``RANK_TOL`` times the top eigenvalue are
    treated as exact zeros and stay zero for every exponent — in particular
    negative exponents never blow up on the kernel.  ``a = 0`` returns the
    support projector.
    """
    w, v = _spectrum(as_matrix(m), psd=True, what="psd_power input")
    return _from_spectrum(_support_power(w, a), v)


def kron(a, b) -> np.ndarray:
    """Kronecker product with the first factor on the slow (major) index."""
    return np.kron(as_matrix(a), as_matrix(b))


def partial_trace(m, dims: tuple[int, int], keep: int) -> np.ndarray:
    """Trace out one tensor factor of a bipartite matrix.

    Parameters
    ----------
    m : array, shape (dA*dB, dA*dB)
        Operator on the tensor product, legs ordered (A ⊗ B) as produced
        by :func:`kron`.
    dims : (dA, dB)
        Factor dimensions.
    keep : int
        0 keeps subsystem A (traces out B), 1 keeps B.
    """
    da, db = dims
    a = as_matrix(m)
    if a.shape != (da * db, da * db):
        raise ShapeError(
            f"partial_trace: shape {a.shape} incompatible with dims {dims}"
        )
    if keep not in (0, 1):
        raise ValueError("keep must be 0 (keep A) or 1 (keep B)")
    t = a.reshape(da, db, da, db)
    if keep == 0:
        return np.trace(t, axis1=1, axis2=3)
    return np.trace(t, axis1=0, axis2=2)


def numerical_rank(m) -> int:
    """Number of singular values above ``RANK_TOL`` times the largest."""
    a = as_matrix(m)
    _require_finite(a, "numerical_rank input")
    s = np.linalg.svd(a, compute_uv=False)
    return int(np.count_nonzero(_support(s)))


def _finite_order(p: float) -> bool:
    """Whether ``p > 0`` and both p and 1/p are finite: a p-norm's root
    1/p overflows to inf at a subnormal p such as 1e-320."""
    return p > 0.0 and math.isfinite(p) and math.isfinite(1.0 / float(p))


def schatten_p(m, p: float) -> float:
    """Schatten p-(quasi)norm ``(Σ λ^p)^(1/p)`` of a PSD matrix.

    Computed from the clamped eigenvalues restricted to the numerical
    support, so 0 < p < 1 (a quasi-norm) is safe on singular inputs.
    """
    if not _finite_order(p):
        raise ValueError(f"schatten_p requires a finite p > 0 and 1/p, got {p}")
    return trace_power(m, p) ** (1.0 / p)


def trace_power(m, p: float) -> float:
    """``Tr m^p`` for PSD ``m``, eigenvalues below the support cutoff dropped."""
    if not np.isfinite(p):
        raise ValueError(f"trace_power needs a finite order, got {p}")
    w = psd_eigvals(m)
    return float(np.sum(w[_support(w)] ** p))


# ---------------------------------------------------------------------------
# JSON encoding: a complex matrix is a nested list of [re, im] pairs,
# row-major.  This is the one wire format every other module reuses.
# ---------------------------------------------------------------------------

def matrix_to_json(m) -> list:
    """Encode a complex matrix as nested ``[re, im]`` pairs (row-major)."""
    a = as_matrix(m)
    return [[[float(x.real), float(x.imag)] for x in row] for row in a]


def matrix_from_json(data) -> np.ndarray:
    """Decode the nested ``[re, im]`` pair format back into an array."""
    if not isinstance(data, list) or not data:
        raise ValueError("matrix JSON must be a non-empty list of rows")
    ncols = None
    rows = []
    for row in data:
        if not isinstance(row, list) or not row:
            raise ValueError("matrix JSON rows must be non-empty lists")
        if ncols is None:
            ncols = len(row)
        elif len(row) != ncols:
            raise ValueError("matrix JSON rows have inconsistent lengths")
        vals = []
        for cell in row:
            # JSON true/false load as ints and NaN/Infinity as floats
            if (
                not isinstance(cell, (list, tuple))
                or len(cell) != 2
                or not all(
                    isinstance(x, (int, float))
                    and not isinstance(x, bool)
                    and math.isfinite(x)
                    for x in cell
                )
            ):
                raise ValueError(
                    "matrix JSON entries must be [re, im] pairs of finite numbers"
                )
            vals.append(complex(cell[0], cell[1]))
        rows.append(vals)
    return np.array(rows, dtype=np.complex128)

