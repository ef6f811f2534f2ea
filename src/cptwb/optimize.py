"""Fixed-point search for extremal output p-norms and multiplicativity checks.

The iteration
-------------
For a channel Φ with Kraus set {A_k}, adjoint Φ̂, 0 < p ≠ 1, and a pure
state ψ, one exact step maps ψ to the eigenvector of

    M(ψ) = Φ̂[ (Φ(ψψ†))^{p−1} ]

with the *largest* eigenvalue when p > 1 and the *smallest* when p < 1.
The step is monotone in Tr Φ(ψψ†)^p — non-decreasing for p > 1,
non-increasing for p < 1 — so the iteration climbs toward the maximal
output p-norm

    ν_p(Φ) = sup_ρ ‖Φ(ρ)‖_p        (p > 1)

and descends toward the minimal output p-quasi-norm for p < 1.  Both
directions head for the minimal output Rényi entropy S^p_min, which
``entropy.estimate_smin_p`` reports from this search: the map
S^p = (p/(1−p))·log‖·‖_p is decreasing in ‖·‖_p for p > 1 and increasing
for p < 1.  Pure inputs suffice: ‖Φ(ρ)‖_p is convex in ρ for p ≥ 1 and
Tr Φ(ρ)^p is concave for p < 1, so the extremum sits on pure states.
At p = 1 the search climbs Tr Γ log Γ = −S, convex too, with the p > 1
steps on M = Φ̂(L), L a cut-off log Γ (:func:`_terms`).  Only
``entropy.estimate_smin_p`` runs it; the ν_p entry points reject p = 1.

For p > 1, Γ^p and Γ^{p−1} are plain powers of the output spectrum.  For
p < 1 the matrix power has a negative exponent, and both are pseudo-powers
on the numerical support: on the kernel of a singular output Γ^{p−1}
silently maps to zero, which makes kernel-escaping candidates look
artificially cheap and can break the monotonicity proof.  The iteration
therefore guards every step: a candidate is accepted only when the
objective does not move against the iteration direction by more than
``value_tol``; otherwise the current state is kept (the stall registers as
convergence).  ``monotonicity_violations`` re-checks each kept value
against the one before it, so it can fire only where the guard and the
re-check round a boundary value differently.

For p ≥ 1 the candidate is not M's eigenvector but a shifted power step,
ψ' ∝ A^32 ψ with A = (M − μI)/Tr(M − μI), from five squarings of A.  The
shift μ is a lower bound of M's spectrum (the larger of
λ_min(Γ^{p−1})·λ_min(Φ̂(I)) and Gershgorin's), so A is PSD,
⟨ψ'|M|ψ'⟩ ≥ ⟨ψ|M|ψ⟩, and Tr Φ(ρ)^p, which is convex, cannot fall: the step
is monotone for the same reason as the exact one.  Near p = 1, M ≈ c·I,
and without the shift the powers would barely move ψ.  The power map
converges linearly, so a step tries a ladder of two candidates.  The first
is the Anderson (secant) extrapolation of depth 1, y ∝ f_n − γ(f_n − f_{n−1})
with f = A^32 x the power candidate of the state x and γ the least-squares
coefficient of the residuals f − x (Walker and Ni, SIAM J. Numer. Anal. 49
(2011) 1715).  y is not provably monotone, so the guard may reject it; the
second rung, the plain f_n, is then decomposed and guarded on those rows
alone, and ``extrapolations_rejected`` counts them.  A run extrapolates only
from two consecutive accepted power steps: its first step is plain, and an
exact step or a guard rejection clears its history.  The exact eigenvector
step confirms a stall: a power step that stalls, or that the guard
rejects, ends the run only when p·(λ_max(M) − ⟨ψ|M|ψ⟩) ≤ ``value_tol``
(from ``eigvalsh``, no eigenvectors); otherwise the next step is the exact
one.

Multistart
----------
``estimate_nu_p`` runs the iteration from a deterministic seed queue
(:func:`_seed_queue`): the maximally entangled state (when d_in is a
perfect square > 1), computational basis states, coherent pairs
(e_j ± i·e_k)/√2, then seeded Haar-random states up to the restart budget,
restart i drawing from the stream (seed, i).  The queue depends only on
(d_in, seed, restarts); it is built once per key and kept read-only in a
small cache.  ``estimate_nu_p(..., seeds=states)`` runs exactly the given
states as its restarts instead, so ``seeds=[ψ]`` is one run from ψ.  The
reduction keeps the best value, breaking ties within ``value_tol`` by
restart index — with the canonical seeds queued first, a canonical optimum
is the one reported when it ties the best.

All restarts of one estimate advance together: the states form an
``(r, d_in)`` stack, each step decomposes the stacked outputs in one
``eigh`` call (for p < 1, the stacked M(ψ) in a second one; for p ≥ 1,
the plain candidates' outputs of the rows whose extrapolation the guard
rejected, and M of the rows taking an exact step), and a run leaves the
stack when it ends.  Each output is decomposed once; its spectrum gives
both the objective and M, and an accepted candidate's spectrum serves the
next step.  Φ̂ is ``channels.apply_adjoint`` on the stack: one
``(1, d_out²) @ T`` product per state with the channel's cached transfer
matrix T = Σ_k conj(A_k) ⊗ A_k, or a loop over the Kraus operators above
``channels.TRANSFER_DIM_MAX``.  Every stacked operation acts matrix by
matrix, so a restart's result depends only on its seed, not on the rows
beside it.  Phases are fixed once, on the reported states: a p < 1
candidate comes with its phase fixed, and for p ≥ 1 ``estimate_nu_p``
applies the same canonical phase to each restart's best state, which
leaves a seed that never moved bit for bit as it was.

The initial outputs of a seed stack do not depend on p.  Each channel keeps
the spectra and traces of the ``_SEED_SPECTRA_MAX`` (8) stacks it has run
from last, keyed by the stack's bytes (:func:`_seed_spectra`), and a run
from a kept stack sums only Tr Γ^p again, exactly as the first run did.  A
scan therefore decomposes each seed queue once per channel, and every
report is the one a new channel gives, bit for bit.

Each run ends with one status, reported per restart in
``OptimizerReport.statuses``: ``converged`` (a step moved the objective by at
most ``value_tol``, or a stalled p ≥ 1 power step passed the fixed-point
test), ``guard_stall`` (the guard rejected an exact step, every p < 1
rejection included) or ``max_iters``.  ``converged`` counts the first two.

Multiplicativity
----------------
``mult_check`` compares a multistart search of A⊗B with ν̂_p(A)·ν̂_p(B),
estimating ν_p(B) only when B is a different object from A (for
``b is a`` it reuses ν_p(A)).  A violation needs one state ψ with
‖(A⊗B)(ψψ†)‖_p above the product by the relative ``VIOLATION_MARGIN``
(below it, for p < 1).  So ``mult_check`` takes optional
``certificates``, states that certified a violation elsewhere: it first
polishes them at this p with ``estimate_nu_p(..., seeds=certificates)``,
up to ``max_iters`` steps.  If the best polished value already certifies
the violation, the row is violated and the tensor search is skipped
(``decided_by == "certificate"``).  Otherwise the search runs
(``decided_by == "search"``), and the row reports the polished state only
when it beats the search by more than ``value_tol``.  A polished state is
a real state, so its value is the same kind of bound the search reports;
only "not violated" needs the search.  ``mult_scan`` carries the
certificate of every violated row to the checks after it.

``mult_scan`` builds A⊗B once and passes it to every check
(``mult_check(..., tensor=...)``), so its transfer matrix, its λ_min(Φ̂(I))
and its seed spectra are computed once per scan; A and B keep their own.
It checks each distinct p once.

The search gets the same threshold, ν̂_p(A)·ν̂_p(B)·(1 ± margin), as its
``bound``: its structured seeds run first, and when their best already
certifies the violation the Haar seeds are skipped
(``tensor_restarts_run`` says how many tensor restarts ran).  When they
do not, the Haar seeds run and the report is the single-stack one.  Both
shortcuts, and a violation itself, need converged single estimates: an
unconverged ν̂_p(A) is too low (too high for p < 1), so a tensor value
beyond the product would show nothing.  Without them the check reports
no violation (``singles_converged`` is false).
"""

from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass, replace
from typing import NamedTuple

import numpy as np

from . import linalg as la
from . import channels as chan
from ._rng import random_pure_state, rng_from

__all__ = [
    "OptimizerConfig",
    "OptimizerReport",
    "MultReport",
    "ScanReport",
    "output_trace_power",
    "estimate_nu_p",
    "mult_check",
    "mult_scan",
]


@dataclass(frozen=True)
class OptimizerConfig:
    """Knobs for the multistart fixed-point search.

    ``restarts`` counts every seed (structured seeds included);
    ``tensor_restarts`` replaces it for tensor-product searches inside
    ``mult_check``.  The seed order and the largest tensor input
    (``TENSOR_DIM_MAX``) are fixed.
    """

    restarts: int = 50
    max_iters: int = 500
    value_tol: float = 1e-12
    seed: int = 0
    tensor_restarts: int = 200


@dataclass(frozen=True)
class OptimizerReport:
    """Multistart outcome for one channel and one Rényi order.

    ``best_value`` is the output p-norm at the best state found: the
    largest over restarts when p > 1 (a lower bound of ν_p), the smallest
    when p < 1 (an upper bound of the infimum), Tr Γ log Γ at p = 1.
    ``guard_fallbacks`` counts the steps whose candidate the guard rejected,
    so that the state was kept and the step stalled;
    ``extrapolations_rejected`` counts the extrapolated p ≥ 1 candidates
    the guard turned down before the plain one was tried.  ``statuses``
    says how each restart ended: ``converged``, ``guard_stall`` or
    ``max_iters`` (see the module docstring); ``converged`` holds
    ``status != "max_iters"`` for each.
    """

    p: float
    direction: str
    best_value: float
    best_trace_power: float
    best_input: np.ndarray
    best_restart: int
    restart_values: tuple
    restart_states: tuple
    iterations: tuple
    converged: tuple
    statuses: tuple
    monotonicity_violations: int
    guard_fallbacks: int
    extrapolations_rejected: int
    seed: int
    n_structured_seeds: int
    config: dict


def output_trace_power(ch: chan.KrausChannel, psi: np.ndarray, p: float) -> float:
    """Tr Φ(ψψ†)^p for p > 0 as the search takes it (:func:`_terms`), Tr Γ at p = 1."""
    v = np.asarray(psi, dtype=np.complex128)
    if v.shape != (ch.d_in,):
        raise la.ShapeError(f"state has shape {v.shape}, expected ({ch.d_in},)")
    if not (p > 0.0 and math.isfinite(p) and np.isfinite(v).all()):
        raise ValueError(f"need a finite state and a finite order p > 0, got p = {p}")
    _, _, t, tr = _output_spectra(ch.kraus_stack, v[None], p)
    return float(tr[0].real if p == 1.0 else t[0])


def _output_spectra(kraus: np.ndarray, states: np.ndarray, p: float):
    """(eigenvalues, eigenvectors, Tr Γ^p, Tr Γ) of Γ = Φ(ψψ†) for every row
    ψ of ``states``, from one stacked, PSD-checked eigendecomposition.

    With the Kraus set stacked as ``(k, d_out, d_in)``, row j of W = K ψ is
    A_j ψ, so Γ = Wᵀ W̄: Γ_il = Σ_j (A_j ψ)_i conj(A_j ψ)_l.
    """
    k, d_out, d_in = kraus.shape
    kpsi = np.matmul(kraus.reshape(k * d_out, d_in), states[..., None])
    kpsi = kpsi.reshape(-1, k, d_out)
    gamma = np.matmul(kpsi.swapaxes(-1, -2), kpsi.conj())
    w, v = la._spectrum(gamma, psd=True, what="channel output")
    return w, v, _trace_powers(w, p), np.trace(gamma, axis1=-2, axis2=-1)


def _trace_powers(w: np.ndarray, p: float) -> np.ndarray:
    """Tr Γ^p (Tr Γ log Γ at p = 1) of clamped, ascending spectra ``(..., n)``,
    summed largest first: the order moves the last bit of every report."""
    return np.sum(_terms(w, p)[..., ::-1], axis=-1)


#: Seed stacks per channel whose output spectra :func:`_seed_spectra` keeps,
#: as many as ``_seed_queue`` keeps queues.
_SEED_SPECTRA_MAX = 8


def _seed_spectra(ch: chan.KrausChannel, states: np.ndarray, p: float):
    """:func:`_output_spectra` of the seed stack ``states`` on ``ch``, from the
    channel's memo when it has run from a stack with the same bytes before.

    The memo keeps each stack's spectra and Tr Γ, which do not depend on p,
    read-only; Tr Γ^p is summed from the spectrum by :func:`_trace_powers`,
    as on a miss, so a hit changes no bit.  It holds the
    ``_SEED_SPECTRA_MAX`` stacks used last.  A scan runs the same seed queues
    at every order, so each is decomposed once per channel.
    """
    memo = ch._seed_spectra
    key = states.tobytes()
    facts = memo.pop(key, None)
    if facts is None:
        w, v, t, tr = _output_spectra(ch.kraus_stack, states, p)
        facts = (w, v, tr)
        for x in facts:
            x.flags.writeable = False
        if len(memo) >= _SEED_SPECTRA_MAX:
            del memo[next(iter(memo))]  # the least recently used
    else:
        w, v, tr = facts
        t = _trace_powers(w, p)
    memo[key] = facts
    return w, v, t, tr


def _terms(w: np.ndarray, p: float, weights: bool = False) -> np.ndarray:
    """Objective terms (summing to Tr Γ^p, or Tr Γ log Γ at p = 1) of clamped,
    ascending spectra ``(..., n)``, or with ``weights`` the eigenvalues of
    the L of M = Φ̂(L): w^p and w^{p−1}, plain for p > 1 and on the numerical
    support for p < 1 (see the ``linalg`` tolerance policy); at p = 1, w log w
    and log(max(w, c)/c), c = ``RANK_TOL``·w_max, zero off the support.  On
    it L is the gradient log Γ + I less a multiple of I, and Φ̂(I) = I for a
    trace-preserving Φ, so M has the gradient's eigenvectors and stall gap."""
    if p == 1.0:
        if weights:
            c = la.RANK_TOL * w[..., -1:]
            return np.log(np.maximum(w, c) / c)
        return w * np.log(np.where(w > 0.0, w, 1.0))
    a = p - 1.0 if weights else p
    return w**a if p > 1.0 else la._support_power(w, a)


def _exact_candidates(m: np.ndarray, p: float) -> np.ndarray:
    """The exact step of each M of the stack ``m``: its top eigenvector for
    p ≥ 1, its least one, phase-fixed, for p < 1, from one checked ``eigh``
    (the Hermiticity check and the symmetrization of every eigensolve)."""
    _, vecs = la._spectrum(m, what="M(ψ)")
    return vecs[..., -1] if p >= 1.0 else la._canonical_phases(vecs[..., :1])[..., 0]


#: Squarings in a p ≥ 1 power candidate, which is A^(2^5) ψ = A^32 ψ.  On a
#: survey of 46 channels with 25 restarts each at p = 1.01, 1.1, 1.5, 3 and 5,
#: with extrapolated steps, 4 squarings left one more restart unconverged at
#: p = 1.01 than 5 and one best value there 1.8e-12 (relative) lower; 3 did
#: the same at p = 1.01 and lowered a best value at p = 5 by 2.5e-11.  The
#: three 200-restart WH3⊗WH3 searches of the WH3 scan took 3 475 steps with
#: 5 or 4 squarings and 3 472 with 3.
_POWER_SQUARINGS = 5


def _power_candidates(shifted: np.ndarray, states: np.ndarray) -> np.ndarray:
    """Each row's A^32 ψ / ‖A^32 ψ‖, with A = S / Tr S for a stack ``shifted``
    of PSD matrices S ``(r, d, d)`` and ψ the rows of ``states`` ``(r, d)``.

    The Rayleigh quotients ⟨ψ|A^{k+1}|ψ⟩ / ⟨ψ|A^k|ψ⟩ of a PSD A rise with k,
    so the candidate's ⟨A⟩ is at least ψ's.  A's eigenvalues lie in [0, 1],
    so the squarings cannot overflow.  A row whose A^32 ψ vanishes (S = 0,
    or ψ in its kernel) keeps its state.  Every product is per matrix, so a
    row's bits do not depend on the rest of the stack.
    """
    scale = np.trace(shifted, axis1=-2, axis2=-1).real
    a = shifted / np.where(scale > 0.0, scale, 1.0)[:, None, None]
    for _ in range(_POWER_SQUARINGS):
        a = a @ a
    x = (a @ states[..., None])[..., 0]
    norms = np.linalg.norm(x, axis=-1)
    moved = norms > 0.0
    if not moved.all():
        x[~moved], norms[~moved] = states[~moved], 1.0
    return x / norms[:, None]


def _extrapolate(
    x: np.ndarray, f: np.ndarray, x_prev: np.ndarray, f_prev: np.ndarray
) -> np.ndarray:
    """Each row's Anderson (secant) candidate of depth 1, normalized:
    y ∝ f − γ(f − f_prev), from two consecutive states x_prev, x and their
    power candidates f_prev, f.

    With the residuals g = f − x, γ = ⟨Δg, g⟩ / ‖Δg‖², Δg = g − g_prev, is
    the complex least-squares coefficient that minimizes ‖g − γΔg‖ (Walker
    and Ni, SIAM J. Numer. Anal. 49 (2011) 1715).  A row whose Δg vanishes
    gets γ = 0, so y is f normalized; a row whose y is zero or not finite
    gets f.  Every operation is per row.
    """
    g = f - x
    dg = g - (f_prev - x_prev)
    num = np.einsum("ri,ri->r", dg.conj(), g)
    den = np.einsum("ri,ri->r", dg.conj(), dg).real
    gamma = np.divide(num, den, out=np.zeros_like(num), where=den > 0.0)
    y = f - gamma[:, None] * (f - f_prev)
    norms = np.linalg.norm(y, axis=-1)
    fine = np.isfinite(norms) & (norms > 0.0)
    return np.where(fine[:, None], y / np.where(fine, norms, 1.0)[:, None], f)


def _ascent_candidates(
    ch: chan.KrausChannel,
    m: np.ndarray,
    pw: np.ndarray,
    states: np.ndarray,
    p: float,
    exact: np.ndarray,
) -> np.ndarray:
    """Each state's p ≥ 1 candidate, from its M = Φ̂(L) and the ascending,
    nonnegative weights ``pw`` of L (:func:`_terms`).

    The power candidate of :func:`_power_candidates` takes the PSD M − μI,
    with μ the larger of two lower bounds of λ_min(M):
    λ_min(L)·λ_min(Φ̂(I)), since L ⪰ λ_min(L)·I, and
    Gershgorin's min_i (M_ii − Σ_{j≠i} |M_ij|).  The shift matters near
    p = 1, where M ≈ c·I and powers of M itself barely move ψ; the
    Gershgorin bound matters for channels close to the depolarizing one,
    whose Φ̂ lifts λ_min(M) far above the first bound: at p = 3 the slowest
    of 10 restarts on ``near_depolarizing`` (d = 3, ε = 1e-3) took 474
    steps with the first bound alone, and 18 with both, as with the exact
    step.  Rows flagged in ``exact`` take the exact step of their M (not of
    M − μI, whose entries can be too small for the Hermiticity check).
    """
    diag = np.arange(m.shape[-1])
    dm = m[:, diag, diag].real
    gershgorin = (2.0 * dm - np.abs(m).sum(axis=-1)).min(axis=-1)
    # pw ascends with w, so pw[:, 0] is its least
    mu = np.maximum(pw[:, 0] * ch.adjoint_unit_min, gershgorin)
    shifted = m.copy()
    shifted[:, diag, diag] -= mu[:, None]
    cand = _power_candidates(shifted, states)
    if exact.any():
        cand[exact] = _exact_candidates(m[exact], p)
    return cand


def _at_fixed_point(
    m: np.ndarray, states: np.ndarray, p: float, value_tol: float
) -> np.ndarray:
    """Whether each state ψ is its M's top eigenvector within the stall rule,
    p·(λ_max(M) − ⟨ψ|M|ψ⟩) ≤ ``value_tol``, from ``eigvalsh`` of the stack
    ``m``.

    By convexity the exact step gains at least p·(λ_max − ⟨ψ|M|ψ⟩) in
    Tr Γ^p, so past this bound it would not stall.
    """
    top = np.linalg.eigvalsh(m)[:, -1]
    at = np.einsum("ri,rij,rj->r", states.conj(), m, states).real
    return p * (top - at) <= value_tol


class _Runs(NamedTuple):
    """Per-row results of :func:`_iterate`, one entry per row of the stack."""

    best: np.ndarray  # (r, d_in) best visited state
    best_t: np.ndarray  # its objective, Tr Γ^p (Tr Γ log Γ at p = 1)
    iterations: np.ndarray
    status: np.ndarray  # "converged", "guard_stall" or "max_iters"
    violations: np.ndarray  # monotonicity violations
    fallbacks: np.ndarray  # guard fallbacks
    rejected: np.ndarray  # extrapolated candidates the guard turned down
    last: np.ndarray  # (r, d_in) last state


def _iterate(
    ch: chan.KrausChannel,
    states,
    p: float,
    max_iters: int,
    value_tol: float,
) -> _Runs:
    """Run the guarded iteration of the module docstring from every row of
    ``states`` (one state or an ``(r, d_in)`` stack, normalized here) for
    at most ``max_iters`` steps; returns each row's results as the arrays of
    :class:`_Runs`.

    Rows are independent: every stacked operation works matrix by matrix,
    so a row's results do not depend on which rows share the stack.  States
    of the wrong length raise ``ShapeError``, and a zero or non-finite state
    or ``max_iters < 1`` raises ``ValueError``, before any eigensolve; an
    output of (numerically) zero trace raises ``ValueError``.
    """
    if max_iters < 1:
        raise ValueError(f"need max_iters >= 1, got {max_iters}")
    psi = np.array(states, dtype=np.complex128, ndmin=2)
    if psi.ndim != 2 or psi.shape[1] != ch.d_in:
        raise la.ShapeError(f"states have shape {psi.shape}, expected (r, {ch.d_in})")
    norms = np.linalg.norm(psi, axis=1)
    bad = ~(np.isfinite(norms) & (norms > 0.0))  # checked before any eigensolve
    if np.any(bad):
        i = np.flatnonzero(bad)[0]
        raise ValueError(f"state {i} has norm {norms[i]}; need a finite, nonzero vector")
    psi /= norms[:, None]
    kraus = ch.kraus_stack
    r = len(psi)

    w, v, t, tr = _seed_spectra(ch, psi, p)
    ascent = p >= 1.0
    sign = 1.0 if ascent else -1.0
    # each row's results, written when it leaves the stack; a row still
    # there after max_iters ran every step
    best, best_t, last = np.empty_like(psi), np.empty_like(t), np.empty_like(psi)
    iterations = np.full(r, max_iters)
    status = np.full(r, "max_iters", dtype=object)
    violations = np.zeros(r, dtype=int)
    fallbacks = np.zeros(r, dtype=int)
    rejected = np.zeros(r, dtype=int)
    # the live stack: row j of each array below belongs to run rows[j]
    rows = np.arange(r)
    b, bt = psi, t  # best state and its objective
    # this step is exact: every p < 1 step, a p >= 1 one after a stalled
    # power step
    exact = np.full(r, not ascent)
    # the last step was an accepted power step from x_prev, whose (unmixed)
    # power candidate was f_prev
    hist = np.zeros(r, dtype=bool)
    x_prev = f_prev = psi

    for it in range(1, max_iters + 1):
        if np.any(np.abs(tr) < 1e-14):
            raise ValueError("channel output has (numerically) zero trace")
        pw = _terms(w, p, weights=True)
        m = chan.apply_adjoint(ch, la._from_spectrum(pw, v))  # M = Φ̂(L)
        if ascent:
            plain = _ascent_candidates(ch, m, pw, psi, p, exact)
            mix = hist & ~exact
            cand = plain
            if mix.any():
                cand = plain.copy()
                cand[mix] = _extrapolate(psi[mix], plain[mix], x_prev[mix], f_prev[mix])
        else:
            cand = _exact_candidates(m, p)
        wc, vc, tc, trc = _output_spectra(kraus, cand, p)
        ok = tc >= t - value_tol if ascent else tc <= t + value_tol
        if ascent:
            # an extrapolated candidate the guard rejects falls back to the
            # plain one, decomposed and guarded in its own stack
            retry = mix & ~ok
            if retry.any():
                rejected[rows[retry]] += 1
                cand[retry] = plain[retry]
                wc[retry], vc[retry], tc[retry], trc[retry] = _output_spectra(
                    kraus, plain[retry], p
                )
                ok[retry] = tc[retry] >= t[retry] - value_tol
            hist = ok & ~exact
            x_prev, f_prev = psi, plain
        if ok.all():
            t_next, psi_next, w, v, tr = tc, cand, wc, vc, trc
        else:
            t_next = np.where(ok, tc, t)
            psi_next = np.where(ok[:, None], cand, psi)
            w = np.where(ok[:, None], wc, w)
            v = np.where(ok[:, None, None], vc, v)
            tr = np.where(ok, trc, tr)
            fallbacks[rows[~ok]] += 1
        step = t_next - t
        bad = sign * step < -value_tol  # should not happen: the step is guarded
        if bad.any():
            violations[rows[bad]] += 1
        gained = sign * (t_next - bt) > 0.0
        bt = np.where(gained, t_next, bt)
        b = np.where(gained[:, None], psi_next, b)
        stalled = np.abs(step) <= value_tol
        # a run that ends here on a rejected power step passed the fixed-point
        # test below; one that ends on a rejected exact step did not
        guard_stall = exact & ~ok
        if ascent:
            # a stalled power step (a rejected one too) ends the run only at
            # a fixed point of the exact step; otherwise the next step is exact
            exact = stalled & ~exact
            if exact.any():
                exact[exact] = ~_at_fixed_point(m[exact], psi[exact], p, value_tol)
                stalled &= ~exact
        psi, t = psi_next, t_next
        if stalled.any():
            done = rows[stalled]
            best[done], best_t[done], last[done] = b[stalled], bt[stalled], psi[stalled]
            iterations[done] = it
            status[done] = np.where(guard_stall[stalled], "guard_stall", "converged")
            keep = ~stalled
            rows, psi, t, w, v, tr, b, bt, exact, hist, x_prev, f_prev = (
                x[keep] for x in (rows, psi, t, w, v, tr, b, bt, exact, hist, x_prev, f_prev)
            )
            if not rows.size:
                break

    best[rows], best_t[rows], last[rows] = b, bt, psi
    return _Runs(best, best_t, iterations, status, violations, fallbacks, rejected, last)


@functools.lru_cache(maxsize=8)
def _seed_queue(d: int, seed: int, restarts: int) -> tuple[np.ndarray, int]:
    """The ``(restarts, d)`` seed queue of ``estimate_nu_p``, read-only, and
    how many of its seeds are structured (see the module docstring): the
    maximally entangled state when d = m² with m > 1, the computational
    basis and the coherent pairs (e_j ± i·e_k)/√2, j < k, cut to
    ``restarts``, then Haar states, seed i from the stream (seed, i)."""
    structured = []
    m = math.isqrt(d)
    if m * m == d and m > 1:
        beta = np.zeros(d, dtype=np.complex128)
        beta[:: m + 1] = 1.0  # e_j ⊗ e_j is entry j·m + j
        structured.append(beta / np.linalg.norm(beta))
    structured.extend(np.eye(d, dtype=np.complex128))
    for j in range(d):
        for k in range(j + 1, d):
            for sgn in (1.0, -1.0):
                v = np.zeros(d, dtype=np.complex128)
                v[j] = 1.0
                v[k] = sgn * 1j  # -1.0 * 1j is -0.0 - 1j: the memo keys on its bytes
                structured.append(v / np.sqrt(2.0))
    structured = structured[:restarts]
    n = len(structured)
    haar = [random_pure_state(d, rng_from(seed, i)) for i in range(n, restarts)]
    queue = np.array(structured + haar)
    queue.flags.writeable = False
    return queue, n


def estimate_nu_p(
    ch: chan.KrausChannel,
    p: float,
    config: OptimizerConfig | None = None,
    *,
    seeds=None,
    bound: float | None = None,
) -> OptimizerReport:
    """Multistart estimate of the extremal output p-norm of a channel.

    Returns the best output p-norm over ``config.restarts`` fixed-point
    runs (largest for p > 1, smallest for p < 1), together with the
    achieving input and per-restart diagnostics.  Ties within
    ``value_tol`` resolve to the lowest restart index, so the canonical
    structured seeds win whenever they reach the optimum.  ``seeds``
    replaces the seed queue: exactly those states run, in order, and
    ``config.restarts`` is ignored.

    ``bound`` stops the search early: when the queue holds both structured
    and Haar seeds, the structured ones run first as one stack, and if
    their best value is already beyond ``bound`` (above it for p > 1, below
    it for p < 1) the report covers those restarts alone.  Otherwise the
    Haar seeds run as a second stack and the report is the one a single
    stack gives, field for field, since a restart's result depends only on
    its index.  p = 1 is rejected.
    """
    if not (p > 0.0 and math.isfinite(p)) or p == 1.0:
        raise ValueError(f"the iteration needs a finite p > 0, p != 1; got {p}")
    return _multistart(ch, p, config or OptimizerConfig(), seeds, bound)


def _multistart(
    ch, p: float, cfg: OptimizerConfig, seeds=None, bound=None
) -> OptimizerReport:
    """:func:`estimate_nu_p` without the order check, so p = 1 too."""
    if seeds is None:
        if cfg.restarts < 1:
            raise ValueError("need at least one restart")
        seeds, n_structured = _seed_queue(ch.d_in, cfg.seed, cfg.restarts)
    else:
        if not len(seeds):
            raise ValueError("need at least one seed")
        n_structured = 0
    stages = [seeds]
    if bound is not None and 0 < n_structured < len(seeds):
        stages = [seeds[:n_structured], seeds[n_structured:]]

    sign = 1.0 if p >= 1.0 else -1.0
    stage_runs: list[_Runs] = []
    best_t: list[float] = []
    best = 0
    for stage in stages:
        stage_runs.append(_iterate(ch, stage, p, cfg.max_iters, cfg.value_tol))
        for t in stage_runs[-1].best_t.tolist():
            best_t.append(t)
            # a restart replaces the best only when it beats it by more
            # than value_tol, so ties go to the lowest index
            if sign * (t - best_t[best]) > cfg.value_tol:
                best = len(best_t) - 1
        if bound is not None and sign * (best_t[best] ** (1.0 / p) - bound) > 0.0:
            break

    runs = _Runs(*map(np.concatenate, zip(*stage_runs)))
    states = runs.best
    if p >= 1.0:  # p < 1 candidates come with their phases fixed
        states = la._canonical_phases(states[..., None])[..., 0]
        # the rotation can leave ~1e-18 on the lead's imaginary part
        lead = la._first_significant(states[..., None])[..., 0]
        states.imag[np.arange(len(states)), lead] = 0.0
    values = tuple(t ** (1.0 / p) for t in best_t)
    statuses = tuple(runs.status.tolist())
    return OptimizerReport(
        p=p,
        direction="max" if p >= 1.0 else "min",
        best_value=values[best],
        best_trace_power=best_t[best],
        best_input=states[best],
        best_restart=best,
        restart_values=values,
        restart_states=tuple(states),
        iterations=tuple(runs.iterations.tolist()),
        converged=tuple(s != "max_iters" for s in statuses),
        statuses=statuses,
        monotonicity_violations=int(runs.violations.sum()),
        guard_fallbacks=int(runs.fallbacks.sum()),
        extrapolations_rejected=int(runs.rejected.sum()),
        seed=cfg.seed,
        n_structured_seeds=n_structured,
        config=asdict(cfg),
    )


# ---------------------------------------------------------------------------
# Multiplicativity
# ---------------------------------------------------------------------------

#: Relative margin above which a tensor-search bound certifies violation.
VIOLATION_MARGIN = 1e-7

#: Largest tensor input dimension d_in(A)·d_in(B) that ``mult_check`` accepts;
#: larger pairs are refused before any estimate runs.
TENSOR_DIM_MAX = 256


@dataclass(frozen=True)
class MultReport:
    """Multiplicativity check for one pair of channels at one order p.

    For p > 1: ``nu_product_lb`` is a lower bound of ν_p(A⊗B); ``violated``
    means it exceeds ν̂_p(A)·ν̂_p(B) by the relative margin, and the
    certifying input state is shipped.  For p < 1 the direction flips
    (the bound is an upper bound of the infimum and a violation is a
    certified shortfall).  ``decided_by`` is ``"certificate"`` when a
    polished certificate decided the verdict without the tensor search,
    else ``"search"``; ``tensor_restarts_run`` counts the tensor-queue
    restarts that ran: 0 when a certificate decided, the number of
    structured seeds when they certified the violation on their own (the
    search stopped there), ``tensor_restarts`` otherwise.
    ``singles_converged`` says whether every restart of both single
    estimates converged; ``violated`` is never true without it.  A guard
    stall at p < 1 counts as convergence here, as everywhere in this
    module.  ``monotonicity_violations`` sums every inner estimate's
    count, certificate polishing included.
    """

    p: float
    nu_a: float
    nu_b: float
    nu_product_lb: float
    product_of_singles: float
    gap: float
    violated: bool
    certificate: np.ndarray
    decided_by: str
    tensor_restarts_run: int
    singles_converged: bool
    tensor_dim: int
    seed: int
    monotonicity_violations: int
    config: dict


@dataclass(frozen=True)
class ScanReport:
    """Grid + bisection multiplicativity scan over Rényi orders."""

    rows: tuple
    threshold: float | None
    bracket: tuple | None


def _tensor_dim(a: chan.KrausChannel, b: chan.KrausChannel) -> int:
    """d_in(A)·d_in(B), or ``ValueError`` above ``TENSOR_DIM_MAX``."""
    tensor_dim = a.d_in * b.d_in
    if tensor_dim > TENSOR_DIM_MAX:
        raise ValueError(
            f"tensor input dimension {tensor_dim} exceeds "
            f"TENSOR_DIM_MAX = {TENSOR_DIM_MAX} (runtime grows sharply)"
        )
    return tensor_dim


def mult_check(
    a: chan.KrausChannel,
    b: chan.KrausChannel,
    p: float,
    config: OptimizerConfig | None = None,
    certificates=(),
    *,
    tensor: chan.KrausChannel | None = None,
) -> MultReport:
    """Compare the tensor-product search against the product of singles.

    ``certificates`` are input states of A⊗B to polish first (see the
    module docstring, "Multiplicativity"): when the best of them certifies
    a violation at this p, the tensor search is skipped.  Otherwise the
    tensor search runs with the violation threshold as its ``bound``, so
    it stops after its structured seeds when they certify the violation.
    A violation needs converged single estimates; without them neither
    shortcut is taken and ``violated`` is false.  A pair whose tensor input
    dimension exceeds ``TENSOR_DIM_MAX`` raises ``ValueError`` first.

    ``tensor`` is ``channels.tensor(a, b)`` when the caller already has it
    (``mult_scan`` passes one object to all its checks, so what the channel
    caches serves every order); it is built here otherwise.  A channel on
    other spaces raises ``ShapeError``.
    """
    cfg = config or OptimizerConfig()
    tensor_dim = _tensor_dim(a, b)
    if tensor is None:
        tensor = chan.tensor(a, b)
    elif (tensor.d_in, tensor.d_out) != (tensor_dim, a.d_out * b.d_out):
        raise la.ShapeError("tensor is not a channel on the spaces of A⊗B")
    rep_a = estimate_nu_p(a, p, cfg)
    rep_b = rep_a if b is a else estimate_nu_p(b, p, cfg)
    product = rep_a.best_value * rep_b.best_value
    # an unconverged single estimate is too low (too high for p < 1), so a
    # tensor value beyond the product would not show a violation
    singles_converged = all(rep_a.converged) and all(rep_b.converged)
    sign = 1.0 if p > 1.0 else -1.0
    bound = product * (1.0 + sign * VIOLATION_MARGIN) if singles_converged else None

    def violates(value: float) -> bool:
        return bound is not None and sign * (value - bound) > 0.0

    tensor_cfg = replace(cfg, restarts=cfg.tensor_restarts)
    estimates = [rep_a] if b is a else [rep_a, rep_b]
    polished = None
    if len(certificates):
        polished = estimate_nu_p(tensor, p, tensor_cfg, seeds=certificates)
        estimates.append(polished)
    if polished is not None and violates(polished.best_value):
        rep_ab, decided_by, tensor_restarts_run = polished, "certificate", 0
    else:
        rep_ab = estimate_nu_p(tensor, p, tensor_cfg, bound=bound)
        decided_by, tensor_restarts_run = "search", len(rep_ab.restart_values)
        estimates.append(rep_ab)
        # a polished state replaces the search's best only when it beats it
        # by more than value_tol, the tie rule of estimate_nu_p
        if polished is not None and (
            sign * (polished.best_trace_power - rep_ab.best_trace_power) > cfg.value_tol
        ):
            rep_ab = polished

    return MultReport(
        p=p,
        nu_a=rep_a.best_value,
        nu_b=rep_b.best_value,
        nu_product_lb=rep_ab.best_value,
        product_of_singles=product,
        gap=math.log(rep_ab.best_value) - math.log(product),
        violated=violates(rep_ab.best_value),
        certificate=rep_ab.best_input,
        decided_by=decided_by,
        tensor_restarts_run=tensor_restarts_run,
        singles_converged=singles_converged,
        tensor_dim=tensor_dim,
        seed=cfg.seed,
        monotonicity_violations=sum(r.monotonicity_violations for r in estimates),
        config=asdict(cfg),
    )


def mult_scan(
    a: chan.KrausChannel,
    b: chan.KrausChannel,
    p_grid,
    config: OptimizerConfig | None = None,
    resolution: float = 0.01,
) -> ScanReport:
    """Run mult_check on a grid and bisect the first violation onset.

    When adjacent grid points flip from non-violated to violated, the
    threshold is bisected to within ``resolution`` and reported as the
    final bracket midpoint; all evaluated points (grid and bisection)
    appear in ``rows`` sorted by p.  ``resolution`` must be finite and
    positive; bisection also stops once the bracket holds no float between
    its ends.

    Points are checked in order (the distinct grid points ascending, then
    each midpoint), all on one A⊗B built here, and every violated row's
    certificate goes to the ``mult_check`` calls after it (bit-identical
    certificates once).  A later point whose
    polished certificates already certify a violation skips the tensor
    search; each row's ``decided_by`` says which way it was decided.
    """
    if not (math.isfinite(resolution) and resolution > 0.0):
        raise ValueError(f"resolution must be finite and > 0, got {resolution}")
    grid = sorted({float(p) for p in p_grid})
    if not grid:
        raise ValueError("empty p grid")
    _tensor_dim(a, b)
    tensor = chan.tensor(a, b)
    certificates: list[np.ndarray] = []

    def check(p: float) -> MultReport:
        r = mult_check(a, b, p, config, certificates=tuple(certificates), tensor=tensor)
        if r.violated and not any(np.array_equal(r.certificate, c) for c in certificates):
            certificates.append(r.certificate)
        return r

    rows = {p: check(p) for p in grid}

    bracket = None
    for lo, hi in zip(grid, grid[1:]):
        if not rows[lo].violated and rows[hi].violated:
            bracket = (lo, hi)
            break

    threshold = None
    if bracket is not None:
        lo, hi = bracket
        while hi - lo > resolution:
            mid = (lo + hi) / 2.0
            if mid in (lo, hi):
                break
            r = check(mid)
            rows[mid] = r
            if r.violated:
                hi = mid
            else:
                lo = mid
        threshold = (lo + hi) / 2.0
        bracket = (lo, hi)

    ordered = tuple(rows[p] for p in sorted(rows))
    return ScanReport(rows=ordered, threshold=threshold, bracket=bracket)
