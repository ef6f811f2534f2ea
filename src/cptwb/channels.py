"""Completely positive trace-preserving maps in Kraus and Choi form.

Conventions
-----------
* A channel maps d_in × d_in density matrices to d_out × d_out ones; each
  Kraus operator is a (d_out, d_in) array and Φ(ρ) = Σ_k A_k ρ A_k† with
  Σ_k A_k† A_k = I.
* The Choi matrix is (id ⊗ Φ) applied to the maximally entangled state,
  normalized to trace one, with legs ordered (input ⊗ output):

      J(Φ) = (1/d_in) Σ_jk |e_j⟩⟨e_k| ⊗ Φ(|e_j⟩⟨e_k|)

  so the partial trace over the *output* leg of a CPT channel is I/d_in.
* ``choi_to_kraus`` scales eigenvectors by sqrt(d_in · λ) to undo the 1/d_in
  normalization, and returns a minimal (rank-many) Kraus set.
* A channel copies its Kraus operators once, into one read-only
  ``(k, d_out, d_in)`` stack (``KrausChannel.kraus_stack``) whose rows are
  ``KrausChannel.kraus``; they must be finite.
* Each object computes its Choi facts once, on first use: a channel its
  Choi matrix (``KrausChannel.choi``) and transfer matrix
  (``KrausChannel.transfer``, which ``apply_adjoint`` reads), a Choi matrix
  its unclamped spectrum (``ChoiMatrix.spectrum``), which every Choi reader
  here reads.  What is cached is read-only.
* ``apply`` and ``apply_adjoint`` (the one Φ̂) act on a matrix or on each
  matrix of a stack ``(..., d, d)`` alone.

Extremality
-----------
A CPT map with minimal Kraus set {A_k}, k = 1..K, is an extreme point of
the CPT convex body iff the K² products {A_j† A_k} are linearly
independent, which forces K ≤ d_in.  The weaker "generalized extreme"
property is Choi rank ≤ d_in; extreme maps satisfy it, and maps satisfying
it decompose no further under rank-preserving mixtures.  ``classify``
reports both flags plus the Choi rank.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import linalg as la
from ._rng import haar_isometry, rng_from

__all__ = [
    "KrausChannel",
    "ChoiMatrix",
    "ChannelMeta",
    "ValidationReport",
    "ChannelValidationError",
    "PerturbResult",
    "MAX_HALVINGS",
    "TP_TOL",
    "TRANSFER_DIM_MAX",
    "DegradingReport",
    "validate_cpt",
    "apply",
    "apply_adjoint",
    "kraus_to_choi",
    "choi_to_kraus",
    "choi_rank",
    "adjoint",
    "compose",
    "tensor",
    "complement",
    "is_extreme",
    "is_generalized_extreme",
    "classify",
    "perturb_to_extreme",
    "choi_distance",
    "verify_degrading",
    "channel_to_json",
    "channel_from_json",
]


class ChannelValidationError(ValueError):
    """Channel data is structurally or numerically invalid."""


@dataclass(frozen=True, eq=False)
class KrausChannel:
    """A CP map given by its Kraus operators (shape checks only).

    Construction does not enforce trace preservation — ``adjoint`` returns
    unital maps through the same type — call :func:`validate_cpt` to check.
    The operators are copied once, into the read-only ``(k, d_out, d_in)``
    stack ``kraus_stack``, and ``kraus`` holds its rows.  Channels compare
    and hash by identity, as what they cache is per object.
    """

    d_in: int
    d_out: int
    kraus: tuple

    def __post_init__(self):
        ops = [la.as_matrix(a) for a in self.kraus]
        if not ops:
            raise ChannelValidationError("channel needs at least one Kraus operator")
        for a in ops:
            if a.shape != (self.d_out, self.d_in):
                raise ChannelValidationError(
                    f"Kraus operator shape {a.shape} != ({self.d_out}, {self.d_in})"
                )
        stack = np.array(ops)  # one copy; faster than np.stack for a few operators
        if not np.isfinite(stack).all():
            raise ChannelValidationError("Kraus operators must be finite")
        stack.flags.writeable = False
        object.__setattr__(self, "kraus", tuple(stack))
        object.__setattr__(self, "kraus_stack", stack)

    @classmethod
    def from_kraus(cls, ops) -> "KrausChannel":
        """Build a channel from a Kraus list, inferring dimensions."""
        mats = [la.as_matrix(a) for a in ops]
        if not mats:
            raise ChannelValidationError("empty Kraus list")
        d_out, d_in = mats[0].shape
        return cls(d_in=d_in, d_out=d_out, kraus=tuple(mats))

    def __len__(self) -> int:
        return len(self.kraus)

    @cached_property
    def choi(self) -> "ChoiMatrix":
        """The Choi matrix (:func:`kraus_to_choi`), built on first use."""
        return kraus_to_choi(self)

    @cached_property
    def transfer(self) -> np.ndarray:
        """The transfer matrix T = Σ_k conj(A_k) ⊗ A_k, shape (d_out², d_in²),
        built on first use; read-only.

        It is the realigned Choi matrix, T[(i,j),(a,b)] = Σ_k conj(A_k[i,a])·
        A_k[j,b], so vec Φ̂(X) = vec X · T with row-major vec.
        """
        k, n = len(self.kraus), self.d_out * self.d_in
        flat = self.kraus_stack.reshape(k, n)  # flat[k, (i, a)] = A_k[i, a]
        t = (np.conj(flat).T @ flat).reshape(self.d_out, self.d_in, self.d_out, self.d_in)
        t = t.transpose(0, 2, 1, 3).reshape(self.d_out**2, self.d_in**2)
        t.flags.writeable = False
        return t


@dataclass(frozen=True, eq=False)
class ChoiMatrix:
    """Trace-normalized Choi matrix with legs ordered (input ⊗ output),
    checked for Hermiticity once and stored symmetrized and read-only;
    compared and hashed by identity."""

    d_in: int
    d_out: int
    matrix: np.ndarray

    def __post_init__(self):
        m = la.as_matrix(self.matrix)
        n = self.d_in * self.d_out
        if m.shape != (n, n):
            raise ChannelValidationError(
                f"Choi matrix shape {m.shape} != ({n}, {n})"
            )
        h = la._hermitian_part(m, "Choi matrix")  # a new array
        h.flags.writeable = False
        object.__setattr__(self, "matrix", h)

    @cached_property
    def spectrum(self) -> tuple[np.ndarray, np.ndarray]:
        """``(w, v)`` from one ``eigh`` of :attr:`matrix`, eigenvalues
        ascending and not clamped, computed on first use; read-only."""
        w, v = np.linalg.eigh(self.matrix)
        w.flags.writeable = v.flags.writeable = False
        return w, v


@dataclass(frozen=True)
class ChannelMeta:
    """Classification record: Choi rank and the two extremality flags."""

    choi_rank: int
    is_extreme: bool
    is_generalized_extreme: bool


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of validate_cpt; ``ok`` summarizes the individual checks."""

    ok: bool
    trace_preserving: bool
    tp_residual: float
    choi_psd: bool
    min_choi_eigval: float
    messages: tuple = ()


# ---------------------------------------------------------------------------
# Core maps
# ---------------------------------------------------------------------------

def _tp_residual(ch: KrausChannel) -> float:
    """max|Σ A_k†A_k − I|, the trace-preservation residual."""
    acc = sum(la.dagger(a) @ a for a in ch.kraus)
    return float(np.abs(acc - np.eye(ch.d_in)).max())


#: Default bound on the trace-preservation residual max|Σ A_k†A_k − I|.
TP_TOL = 1e-10


def validate_cpt(ch: KrausChannel, tol: float = TP_TOL) -> ValidationReport:
    """Check trace preservation and complete positivity of a Kraus channel.

    Complete positivity of a Kraus-form map is automatic; what is actually
    verified is that the assembled Choi matrix is PSD (guards against bad
    inputs) and that Σ A_k†A_k = I within ``tol`` (max-entry norm).
    A least eigenvalue below the PSD floor is reported, not raised.
    """
    tp_residual = _tp_residual(ch)
    trace_preserving = tp_residual <= tol

    w, _ = ch.choi.spectrum
    min_eig = float(w[0])
    choi_psd = bool(min_eig >= la._psd_floor(w[-1]))

    messages = []
    if not trace_preserving:
        messages.append(f"sum A†A deviates from identity by {tp_residual:.3e}")
    if not choi_psd:
        messages.append(f"Choi matrix has negative eigenvalue {min_eig:.3e}")
    return ValidationReport(
        ok=trace_preserving and choi_psd,
        trace_preserving=trace_preserving,
        tp_residual=tp_residual,
        choi_psd=choi_psd,
        min_choi_eigval=min_eig,
        messages=tuple(messages),
    )


def _operands(x, d: int) -> np.ndarray:
    """``x`` as a complex matrix or stack ``(..., d, d)``, else ``ShapeError``."""
    m = np.asarray(x, dtype=np.complex128)
    if m.shape[-2:] != (d, d):
        raise la.ShapeError(f"input shape {m.shape} != (..., {d}, {d})")
    return m


def apply(ch: KrausChannel, rho) -> np.ndarray:
    """Φ(ρ) = Σ_k A_k ρ A_k† of a d_in × d_in matrix or of each matrix of a
    stack ``(..., d_in, d_in)`` (linear — ρ need not be a state)."""
    r = _operands(rho, ch.d_in)
    out = np.zeros(r.shape[:-2] + (ch.d_out, ch.d_out), dtype=np.complex128)
    for a in ch.kraus:
        out += a @ r @ la.dagger(a)
    return out


#: Largest d_in·d_out for which ``apply_adjoint`` uses the transfer matrix
#: (it has (d_in·d_out)² entries, 1 MiB at the limit); above it, a Kraus loop.
TRANSFER_DIM_MAX = 256


def apply_adjoint(ch: KrausChannel, x) -> np.ndarray:
    """Adjoint action Φ̂(X) = Σ_k A_k† X A_k of a d_out × d_out matrix or of
    each matrix of a stack ``(..., d_out, d_out)``.

    When d_in·d_out ≤ ``TRANSFER_DIM_MAX`` each matrix is one
    ``(1, d_out²) @ T`` product with :attr:`KrausChannel.transfer`: a single
    GEMM over the whole stack would be faster, but BLAS may sum a row in a
    different order depending on how many rows there are, and a matrix's
    bits must not depend on the rest of the stack.  Above the limit Φ̂ loops
    over the Kraus operators.
    """
    m = _operands(x, ch.d_out)
    lead = m.shape[:-2]
    if ch.d_in * ch.d_out <= TRANSFER_DIM_MAX:
        vec = m.reshape(*lead, 1, ch.d_out**2)
        return (vec @ ch.transfer).reshape(*lead, ch.d_in, ch.d_in)
    out = np.zeros(lead + (ch.d_in, ch.d_in), dtype=np.complex128)
    for a in ch.kraus:
        out += la.dagger(a) @ m @ a
    return out


def kraus_to_choi(ch: KrausChannel) -> ChoiMatrix:
    """Assemble the trace-normalized (input ⊗ output) Choi matrix."""
    n = ch.d_in * ch.d_out
    j = np.zeros((n, n), dtype=np.complex128)
    for a in ch.kraus:
        # component c·d_out + r of w is A[r, c]: the (in ⊗ out) Choi order
        w = a.T.reshape(-1)
        j += np.outer(w, np.conj(w))
    j /= ch.d_in
    return ChoiMatrix(d_in=ch.d_in, d_out=ch.d_out, matrix=j)


def choi_to_kraus(choi: ChoiMatrix) -> KrausChannel:
    """Minimal Kraus set from the Choi eigendecomposition.

    Eigenvectors with eigenvalue on the support (above ``la.RANK_TOL`` times
    the largest), in descending order with canonical phases, are rescaled by
    sqrt(d_in · λ) and unvectorized: choi-rank many (at most d_in · d_out).
    """
    w, v = choi.spectrum
    w = la._psd_clamp(w.copy(), "Choi matrix")[::-1]
    v = la._canonical_phases(v[:, ::-1])
    keep = la._support(w)
    if not keep.any():
        raise ChannelValidationError("Choi matrix is zero")
    ops = tuple(
        (np.sqrt(choi.d_in * lam) * vec.reshape(choi.d_in, choi.d_out)).T
        for lam, vec in zip(w[keep], v.T[keep])
    )
    return KrausChannel(d_in=choi.d_in, d_out=choi.d_out, kraus=ops)


def choi_rank(obj) -> int:
    """Numerical rank of the Choi matrix of a channel (or Choi directly)."""
    j = obj if isinstance(obj, ChoiMatrix) else obj.choi
    w = la._psd_clamp(j.spectrum[0].copy(), "Choi matrix")
    return int(np.count_nonzero(la._support(w)))


def adjoint(ch: KrausChannel) -> KrausChannel:
    """The adjoint map with Kraus set {A_k†} (unital CP, not CPT in general)."""
    return KrausChannel(
        d_in=ch.d_out,
        d_out=ch.d_in,
        kraus=tuple(la.dagger(a) for a in ch.kraus),
    )


def compose(after: KrausChannel, first: KrausChannel) -> KrausChannel:
    """(after ∘ first) with the product Kraus set {A_i B_j}."""
    if first.d_out != after.d_in:
        raise la.ShapeError(
            f"compose: inner dim mismatch {first.d_out} != {after.d_in}"
        )
    ops = tuple(a @ b for a in after.kraus for b in first.kraus)
    return KrausChannel(d_in=first.d_in, d_out=after.d_out, kraus=ops)


def tensor(a: KrausChannel, b: KrausChannel) -> KrausChannel:
    """Tensor product channel with Kraus set {A_i ⊗ B_j}, i major.

    The whole set is one broadcast product of the two Kraus stacks, entry
    for entry the ``np.kron`` of each pair.
    """
    d_in, d_out = a.d_in * b.d_in, a.d_out * b.d_out
    x = a.kraus_stack[:, None, :, None, :, None]  # (i, ·, r, ·, c, ·)
    y = b.kraus_stack[None, :, None, :, None, :]  # (·, j, ·, r', ·, c')
    ops = (x * y).reshape(-1, d_out, d_in)
    return KrausChannel(d_in=d_in, d_out=d_out, kraus=tuple(ops))


def complement(ch: KrausChannel) -> KrausChannel:
    """Complementary channel to the environment of the given Kraus set.

    With Stinespring isometry Vψ = Σ_k (A_k ψ) ⊗ e_k, tracing out the
    output instead of the environment gives [Φ^C(ρ)]_jk = Tr(A_j ρ A_k†).
    The environment dimension — and hence the output dimension here — is
    the number of Kraus operators in the *given* representation; feed a
    minimal set (``choi_to_kraus``) for the canonical complement.
    """
    ops = tuple(ch.kraus_stack[:, i, :] for i in range(ch.d_out))  # each (k, d_in)
    return KrausChannel(d_in=ch.d_in, d_out=len(ch.kraus), kraus=ops)


# ---------------------------------------------------------------------------
# Extremality
# ---------------------------------------------------------------------------

def _extremality(ch: KrausChannel) -> tuple[int, KrausChannel, bool]:
    """Choi rank, minimal Kraus set (``ch`` itself when minimal) and extreme
    flag of ``ch`` from the cached spectrum of its Choi matrix.

    Extreme means the K² products {A_j†A_k} of the minimal set, stacked into
    a (K², d_in²) matrix, have full row rank; K > d_in cannot.
    """
    rank = choi_rank(ch)
    m = ch if len(ch.kraus) == rank else choi_to_kraus(ch.choi)
    k = len(m.kraus)
    if k > m.d_in:
        return rank, m, False
    g = np.stack([(la.dagger(a) @ b).reshape(-1) for a in m.kraus for b in m.kraus])
    return rank, m, la.numerical_rank(g) == k * k


def is_extreme(ch: KrausChannel) -> bool:
    """Extreme-point test: {A_j†A_k} linearly independent on a minimal
    Kraus set (see :func:`_extremality`)."""
    return _extremality(ch)[2]


def is_generalized_extreme(ch: KrausChannel) -> bool:
    """Choi rank ≤ d_in (extreme maps satisfy this; the converse fails)."""
    return choi_rank(ch) <= ch.d_in


def classify(ch: KrausChannel) -> ChannelMeta:
    """Choi rank plus both extremality flags in one record."""
    rank, _, extreme = _extremality(ch)
    return ChannelMeta(rank, extreme, rank <= ch.d_in)


@dataclass(frozen=True)
class PerturbResult:
    """Result of perturb_to_extreme."""

    channel: KrausChannel
    epsilon: float
    already_extreme: bool
    halvings: int
    choi_distance: float


#: How often ``perturb_to_extreme`` halves ε before it gives up.
MAX_HALVINGS = 40


def perturb_to_extreme(ch: KrausChannel, epsilon0: float = 0.1, seed=0) -> PerturbResult:
    """Push a generalized-extreme channel to a nearby true extreme point.

    The input Kraus list (padded with zero operators up to d_in entries) is
    mixed with a seeded Haar-random extreme reference {B_k}:

        C_k(ε) = A_k + ε B_k,   S(ε) = Σ_k C_k†C_k,
        new Kraus = C_k(ε) · S(ε)^{-1/2}

    ε is searched geometrically downward from ``epsilon0`` (at most
    ``MAX_HALVINGS`` halvings) until S(ε) is positive definite and the
    renormalized channel passes ``is_extreme``; generically the first ε
    works.  One eigendecomposition of S(ε) per ε tried gives both the
    definiteness check and S(ε)^{-1/2} = V diag(w^{-1/2}) V†.  The reference
    is drawn once (extreme with probability one; each candidate is tested).
    ε = 0 or an already extreme input is a no-op (flagged); a negative or
    non-finite ``epsilon0`` raises ``ValueError``.
    """
    if not (math.isfinite(epsilon0) and epsilon0 >= 0.0):
        raise ValueError(f"epsilon0 must be finite and >= 0, got {epsilon0}")
    rank, base, already_extreme = _extremality(ch)
    if rank > ch.d_in:
        raise ChannelValidationError(
            "perturb_to_extreme needs Choi rank <= d_in"
        )
    if epsilon0 == 0.0 or already_extreme:
        return PerturbResult(
            channel=ch,
            epsilon=0.0,
            already_extreme=already_extreme,
            halvings=0,
            choi_distance=0.0,
        )

    zero = np.zeros((ch.d_out, ch.d_in), dtype=np.complex128)
    ops = list(base.kraus) + [zero] * (ch.d_in - len(base.kraus))

    # Seeded reference Kraus set: slices of a Haar isometry C^d_in -> C^(d_out*d_in).
    v = haar_isometry(ch.d_out * ch.d_in, ch.d_in, rng_from(seed, 0))
    reference = v.reshape(ch.d_in, ch.d_out, ch.d_in)

    eps = float(epsilon0)
    for halving in range(MAX_HALVINGS + 1):
        c_ops = [a + eps * b for a, b in zip(ops, reference)]
        w, v = la._spectrum(sum(la.dagger(c) @ c for c in c_ops))
        if la._support(w).all():
            s_isqrt = (v * w ** -0.5) @ la.dagger(v)
            new_ops = tuple(c @ s_isqrt for c in c_ops)
            cand = KrausChannel(d_in=ch.d_in, d_out=ch.d_out, kraus=new_ops)
            if _extremality(cand)[2]:
                return PerturbResult(
                    channel=cand,
                    epsilon=eps,
                    already_extreme=False,
                    halvings=halving,
                    choi_distance=choi_distance(cand, ch),
                )
        eps /= 2.0
    raise RuntimeError(
        f"no extreme perturbation found after {MAX_HALVINGS} halvings"
    )


def choi_distance(a: KrausChannel, b: KrausChannel) -> float:
    """Max-entry distance between two channels' Choi matrices."""
    ja, jb = a.choi.matrix, b.choi.matrix
    if ja.shape != jb.shape:
        raise la.ShapeError("choi_distance: dimension mismatch")
    return float(np.abs(ja - jb).max())


# ---------------------------------------------------------------------------
# Degradability
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DegradingReport:
    """Residual of the degrading identity X ∘ Φ = Φ^C (max-entry norm)."""

    ok: bool
    residual: float


def verify_degrading(
    phi: KrausChannel, degrading: KrausChannel, tol: float = 1e-8
) -> DegradingReport:
    """Check that ``degrading`` maps Φ's output onto Φ's complement.

    Compares Choi matrices of (degrading ∘ Φ) and complement(Φ), where the
    complement is taken with respect to Φ's stored Kraus representation.
    """
    if degrading.d_in != phi.d_out:
        raise la.ShapeError(
            "degrading map input dim must equal channel output dim"
        )
    lhs = kraus_to_choi(compose(degrading, phi)).matrix
    rhs = kraus_to_choi(complement(phi)).matrix
    if lhs.shape != rhs.shape:
        return DegradingReport(ok=False, residual=float("inf"))
    residual = float(np.abs(lhs - rhs).max())
    return DegradingReport(ok=residual <= tol, residual=residual)


# ---------------------------------------------------------------------------
# Serialization: {"d_in": int, "d_out": int, "kraus": [matrix, ...]} with
# matrices encoded as nested [re, im] pairs (see linalg.matrix_to_json).
# ---------------------------------------------------------------------------

def channel_to_json(ch: KrausChannel) -> dict:
    return {
        "d_in": ch.d_in,
        "d_out": ch.d_out,
        "kraus": [la.matrix_to_json(a) for a in ch.kraus],
    }


def channel_from_json(data: dict, validate: bool = True) -> KrausChannel:
    """Load a channel from its JSON dict, validating CPT unless told not to."""
    if not isinstance(data, dict):
        raise ChannelValidationError("channel JSON must be an object")
    missing = {"d_in", "d_out", "kraus"} - set(data)
    if missing:
        raise ChannelValidationError(f"channel JSON missing keys: {sorted(missing)}")
    d_in, d_out = data["d_in"], data["d_out"]
    if not all(type(d) is int and d >= 1 for d in (d_in, d_out)):
        raise ChannelValidationError("d_in and d_out must be positive integers")
    if not isinstance(data["kraus"], list) or not data["kraus"]:
        raise ChannelValidationError("kraus must be a non-empty list of matrices")
    try:
        ops = tuple(la.matrix_from_json(m) for m in data["kraus"])
    except ValueError as exc:
        raise ChannelValidationError(f"bad Kraus matrix encoding: {exc}") from exc
    ch = KrausChannel(d_in=d_in, d_out=d_out, kraus=ops)
    if validate:
        report = validate_cpt(ch)
        if not report.ok:
            raise ChannelValidationError(
                "channel failed CPT validation: " + "; ".join(report.messages)
            )
    return ch
