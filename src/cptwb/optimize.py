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
``VALUE_TOL``; otherwise the row falls down the candidate ladder (below),
and below its last rung it keeps its state (the stall registers as
convergence).  ``monotonicity_violations`` re-checks each kept value
against the one before it, so it can fire only where the guard and the
re-check round a boundary value differently.

For p ≥ 1 the exact step has a cheaper stand-in, a shifted power step,
ψ' ∝ A^32 ψ with A = (M − μI)/Tr(M − μI), from five squarings of A.  The
shift μ is a lower bound of M's spectrum (Gershgorin's, floored at 0: M is
PSD), so A is PSD, ⟨ψ'|M|ψ'⟩ ≥ ⟨ψ|M|ψ⟩, and Tr Φ(ρ)^p, which is convex,
cannot fall: the step is monotone for the same reason as the exact one.
Near p = 1, M ≈ c·I, and without the shift the powers would barely move ψ.

The candidate ladder
--------------------
Every step takes its candidate from one fixed ladder of three rungs:
0, the Anderson (secant) extrapolation of depth 1, y ∝ f_n − γ(f_n − f_{n−1})
with f = A^32 x the power candidate of the state x and γ the least-squares
coefficient of the residuals f − x (Walker and Ni, SIAM J. Numer. Anal. 49
(2011) 1715), which is not provably monotone; 1, the plain f_n; 2, the exact
step.  A p < 1 row has no power rungs and starts every pass on the exact
one, the last.  A p ≥ 1 row starts where two screens put it.  First the
fixed-point test, which ends a p ≥ 1 run: by convexity the plain step gains
at least p·(⟨f|M|f⟩ − ⟨ψ|M|ψ⟩) in Tr Γ^p, so a row where that bound is at
most ``VALUE_TOL`` is tested on the M it already has, and ends when
p·(λ_max(M) − ⟨ψ|M|ψ⟩) ≤ ``VALUE_TOL`` (from ``eigvalsh``, no
eigenvectors), before any candidate output is decomposed; if it fails, it
starts on the exact rung.  Then the residual gate: a row whose last step
was an accepted power step (so a run's first step is plain, and an exact
step clears its history) starts extrapolated when its power residual
contracts, ‖f_n − x_n‖ < ‖f_{n−1} − x_{n−1}‖, and plain otherwise.  Where
the residual grew the secant model is poor: on the 118 Haar restarts of the
default WH3⊗WH3 search at p = 4.5, such rows gave 78 of the 94 rejected
extrapolations (each costs its row a second output decomposition), and the
gate leaves 18.

A pass builds every row's first candidate, decomposes all their outputs in
one stacked call, and guards them with one test for both directions,
sign·Tr Γ'^p ≥ sign·Tr Γ^p − ``VALUE_TOL`` and |Tr Γ'| ≥ 1e-14, with Γ' the
candidate's output and sign +1 for p ≥ 1, −1 below.  The trace term always
holds for a trace-preserving map; for one that is not, it keeps a p < 1 run
out of the map's kernel, where a zero output would look cheapest.  A row
rejected on rung k falls to rung k + 1 in the same pass, and only those
rows are built, decomposed and guarded again, so that no run repeats a
rejected step.  A row rejected on
the exact rung keeps its state and ends as ``guard_stall``.  At p > 1
convexity makes a plain candidate past the fixed-point screen gain more
than ``VALUE_TOL``, so, up to rounding, the guard rejects only extrapolated
candidates there; below p = 1 it rejects only exact ones.

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
reduction keeps the best value, breaking ties within ``VALUE_TOL`` by
restart index — with the canonical seeds queued first, a canonical optimum
is the one reported when it ties the best.

All restarts of one estimate advance together: the states form an
``(r, d_in)`` stack, and each pass decomposes M of the rows starting on
the exact rung in one ``eigh`` call (every row, for p < 1) and all first
candidates' outputs in a second; each fall to the next rung adds one for
the outputs of the rows that fell, after one for their M when they fall to
the exact rung.  A run leaves the stack when it ends.  Each output is
decomposed once; its spectrum gives both the objective and M, and an
accepted candidate's spectrum serves the next step.  An output Γ = WᵀW̄
is a Gram matrix, Hermitian by construction, so it is symmetrized without
the Hermiticity test of other eigensolves (:func:`_output_spectra`).  Φ̂ is
``channels.apply_adjoint`` on the stack, and the channel's structure picks
its path: for a plain channel, one ``(1, d_out²) @ T`` product per state
with the cached transfer matrix T = Σ_k conj(A_k) ⊗ A_k, or a loop over
the Kraus operators above ``channels.TRANSFER_DIM_MAX``; for a product
A⊗B from ``channels.tensor`` whose factors are both within that limit,
such as the tensor search's, two products with the factors' transfer
matrices: each state's L, its legs reordered to a ``(d_A², d_B²)`` matrix
X, gives (X·T_B)ᵀ·T_A, 1 458 complex multiply-adds per state on WH3⊗WH3
instead of 6 561.  Every stacked operation acts matrix by matrix, so a
restart's result depends only on its seed, not on the rows beside it.
Phases are fixed once, on the reported states, in both directions:
``estimate_nu_p`` turns the first significant entry of each restart's end
state positive real (``linalg._canonical_phases``), which leaves a
structured seed that never moved bit for bit as it was.

The initial outputs of a seed stack do not depend on p.  For each channel
the module keeps the spectra and traces of the ``_SEED_SPECTRA_MAX`` (8)
stacks it has run from last, keyed by the stack's bytes
(:func:`_seed_spectra`), in a store that holds its channels weakly, so a
channel's memo dies with it.  A run from a kept stack sums only Tr Γ^p
again, exactly as the first run did.  A scan therefore decomposes each seed
queue once per channel, and every report is the one a new channel gives,
bit for bit.

Each run ends with one status, reported per restart in
``OptimizerReport.statuses``: ``converged`` (a p ≥ 1 run passed the
fixed-point test at its end state; a p < 1 step moved the objective by at
most ``VALUE_TOL``), ``guard_stall`` (the guard rejected the row on the
exact rung, the last) or ``max_iters``.  ``converged`` counts the first
two.  A restart reports one state, the one it ended on, whose status it
reports, and that state's value; a step the guard accepted may have lost
up to ``VALUE_TOL``, so the value can lie that far behind the best the run
visited.  ``iterations`` counts passes: each builds M once, and the
last pass of a converged p ≥ 1 run builds M and tests it, but takes no step.

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
when it beats the search by more than ``VALUE_TOL``.  A polished state is
a real state, so its value is the same kind of bound the search reports;
only "not violated" needs the search.  ``mult_scan`` carries the
certificate of every violated row to the checks after it.

``mult_scan`` builds A⊗B once and passes it to every check
(``mult_check(..., tensor=...)``), so its seed spectra are computed once
per scan; A and B keep their own, and their transfer matrices, through
which Φ̂ of A⊗B acts.  It checks each distinct grid point once, in
ascending order.  The onset is the first
pair of neighbouring checked points, both on one side of p = 1 (where the
verdict's direction flips), that goes from not violated to violated; when
the grid's pair is at most ``resolution`` apart it is the bracket
(``placed_by == "grid"``).  Otherwise the scan places the threshold from
the carried certificates' gap curve

    g(p) = ±(log‖(A⊗B)(cc†)‖_p − log(ν̂_p(A)·ν̂_p(B)·(1 ± margin))),

c the best of the certificates polished at p and the sign flipped for
p < 1, so that g > 0 says what ``violated`` says.  g is smooth where one
certificate stays best, and an evaluation costs the two single estimates,
whose seed spectra are kept, and one polish: a few milliseconds, where
each "not violated" row costs a full tensor search; at a checked point g
reuses the row's product of singles.  A safeguarded Illinois regula falsi
(:func:`_illinois`) finds g's root in the bracket, and two checks, half a
``resolution`` below and above it and clipped to the bracket, confirm it:
if the lower is not violated and the upper is, they are the bracket
(``"gap_root"``).  When they disagree, or no certificate is carried, or g
does not change sign, the scan bisects the first onset among its rows
inside the grid's bracket (``"bisection"``), until the bracket is at most
``resolution`` wide or holds no float between its ends.  The threshold is
the bracket's midpoint.  Only ``mult_check`` gives verdicts: the
evaluations of g are not rows.

The search gets the same threshold, ν̂_p(A)·ν̂_p(B)·(1 ± margin), as its
``bound``: its structured seeds run first, and when their best already
certifies the violation the Haar seeds are skipped
(``tensor_restarts_run`` says how many tensor restarts ran).  When they
do not, the Haar seeds run and the report is the single-stack one.  Both
shortcuts, and a violation itself, need converged single estimates: an
unconverged ν̂_p(A) is too low (too high for p < 1), so a tensor value
beyond the product would show nothing.  Without them the check reports
no violation (``singles_converged`` is false).

Above p = 1, ``mult_scan`` continues each tensor search from the one
before it.  A row whose search ran its Haar part hands on its Haar end
states (``MultReport.search_states``, the rows of the search's
``restart_states`` after the structured seeds).  A later row above 1 takes
them from the nearest such row in p, ties going to the lower p, all but
their last ``_FRESH_SEEDS`` (32).  They are plain data, ``haar``, a
``(k, d_in)`` stack of finite, nonzero states that ``mult_check`` checks
against the queue before any pass and hands to ``estimate_nu_p``, where it
takes the first k Haar slots of the queue.  The remaining slots run the
queue's own Haar seeds, the ones an uncontinued row runs there, so a scan
draws no random state beyond its cached queues.  The structured seeds stay
first, so the ``bound`` staging and the seed-spectra memo work as before,
and the restart count stays ``tensor_restarts``.
On WH3⊗WH3 the Haar restarts end on a few Schmidt orbits that are fixed
points at every p, so a continued run ends after a pass or two: the gap
root's lower check of the default WH3 scan (p ≈ 4.777) takes at most 450
passes (``test_continued_rows_carry_end_states_and_count_them``), and every
verdict, tensor value and the threshold are those of a scan that continues
nothing (``test_continuation_keeps_the_scans_answers``).  The share of the
queue's own seeds matters because only states that start afresh at this p
can find a maximum that appears between two checked orders.  A row with
no such neighbour, and every row below 1, runs the queue's own Haar seeds:
there single estimates can end on guard stalls short of their minimum, and
a continued tensor search that beat them gave a violation on a grid where
the queue's own search gives none.
"""

from __future__ import annotations

import functools
import math
import numbers
import sys
import weakref
from dataclasses import asdict, dataclass, field, replace
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


#: The one bound on Tr Γ^p (Tr Γ log Γ at p = 1) that the search compares
#: against, absolute: the guard, the fixed-point screen and test, the p < 1
#: stop test, the tie rule of ``estimate_nu_p`` and ``mult_check``'s
#: polish-versus-search rule (module docstring).
VALUE_TOL = 1e-12


@dataclass(frozen=True)
class OptimizerConfig:
    """Knobs for the multistart fixed-point search, each checked when the
    config is built: ``restarts``, ``max_iters`` and ``tensor_restarts``
    must be integers ≥ 1 and ``seed`` an integer ≥ 0 (a bool is not an
    integer), or ``ValueError`` names the field.

    ``restarts`` counts every seed (structured seeds included);
    ``tensor_restarts`` replaces it for tensor-product searches inside
    ``mult_check``.  The seed order, the largest tensor input
    (``TENSOR_DIM_MAX``) and ``value_tol`` are fixed: ``value_tol`` is
    ``VALUE_TOL``, listed so that every report's ``config`` names it, and
    cannot be set.
    """

    restarts: int = 50
    max_iters: int = 500
    value_tol: float = field(default=VALUE_TOL, init=False)
    seed: int = 0
    tensor_restarts: int = 200

    def __post_init__(self):
        for name in ("restarts", "max_iters", "tensor_restarts", "seed"):
            v, least = getattr(self, name), 0 if name == "seed" else 1
            if isinstance(v, bool) or not isinstance(v, numbers.Integral) or v < least:
                raise ValueError(f"{name} must be an integer >= {least}, got {v!r}")


#: How a restart can end, in the order reports tally them (module docstring).
STATUSES = ("converged", "guard_stall", "max_iters")


@dataclass(frozen=True)
class OptimizerReport:
    """Multistart outcome for one channel and one Rényi order.

    ``best_value`` is the output p-norm at the best state found: the
    largest over restarts when p > 1 (a lower bound of ν_p), the smallest
    when p < 1 (an upper bound of the infimum), Tr Γ log Γ at p = 1.
    ``iterations`` counts each restart's passes, its last pass included.
    Both counts are of guard rejections on the candidate ladder (module
    docstring): ``guard_fallbacks`` on the plain rung, whose rows fall to
    the exact rung in the same pass, and on the exact rung, whose rows keep
    their state and end; ``extrapolations_rejected`` on the extrapolated
    rung, whose rows fall to the plain rung.  Only p ≥ 1 rows whose power
    residual contracted over their last step start extrapolated.
    ``statuses`` says how each restart ended, one of ``STATUSES``:
    ``converged`` (for p ≥ 1: at a state that passed the fixed-point test),
    ``guard_stall`` or ``max_iters`` (see the module docstring);
    ``converged`` holds ``status != "max_iters"`` for each.
    ``restart_values`` holds each restart's value, and ``restart_states``,
    one ``(r, d_in)`` array, each restart's end state in its row: the state
    its status is about, with its phase fixed.  ``best_input`` is one of
    those rows.
    """

    p: float
    direction: str
    best_value: float
    best_trace_power: float
    best_input: np.ndarray
    best_restart: int
    restart_values: tuple
    restart_states: np.ndarray
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
    ψ of ``states``, from one stacked, PSD-clamped eigendecomposition.

    With the Kraus set stacked as ``(k, d_out, d_in)``, row j of W = K ψ is
    A_j ψ, so Γ = Wᵀ W̄: Γ_il = Σ_j (A_j ψ)_i conj(A_j ψ)_l.  A Gram matrix
    is Hermitian by construction, so Γ is not tested for it; ``eigh`` takes
    Γ/2 + Γ†/2, bit for bit as ``la._hermitian_part`` makes it.  Finiteness
    is tested on Tr Γ: |Γ_il| ≤ (Γ_ii Γ_ll)^½, so an entry that overflows,
    or a NaN in W, shows on the diagonal, and a non-finite output raises
    ``ValueError`` as the check of every other eigensolve does.
    """
    k, d_out, d_in = kraus.shape
    kpsi = np.matmul(kraus.reshape(k * d_out, d_in), states[..., None])
    kpsi = kpsi.reshape(-1, k, d_out)
    gamma = np.matmul(kpsi.swapaxes(-1, -2), kpsi.conj())
    tr = np.trace(gamma, axis1=-2, axis2=-1)
    la._require_finite(tr, "channel output")
    half, hh = la._halves(gamma)
    half += hh
    w, v = np.linalg.eigh(half)
    w = la._psd_clamp(w, "channel output")
    return w, v, _trace_powers(w, p), tr


def _trace_powers(w: np.ndarray, p: float) -> np.ndarray:
    """Tr Γ^p (Tr Γ log Γ at p = 1) of clamped, ascending spectra ``(..., n)``,
    summed largest first: the order moves the last bit of every report."""
    return np.sum(_terms(w, p)[..., ::-1], axis=-1)


#: Seed stacks per channel whose output spectra :func:`_seed_spectra` keeps,
#: as many as ``_seed_queue`` keeps queues.
_SEED_SPECTRA_MAX = 8

#: Each channel's memo of :func:`_seed_spectra`, {stack bytes: facts} from
#: the least to the most recently used; it dies with its channel.
_SEED_SPECTRA = weakref.WeakKeyDictionary()


def _seed_spectra(ch: chan.KrausChannel, states: np.ndarray, p: float):
    """:func:`_output_spectra` of the seed stack ``states`` on ``ch``, from the
    channel's memo in ``_SEED_SPECTRA`` when it has run from a stack with the
    same bytes before.

    The memo keeps each stack's spectra and Tr Γ, which do not depend on p,
    read-only; Tr Γ^p is summed from the spectrum by :func:`_trace_powers`,
    as on a miss, so a hit changes no bit.  It holds the
    ``_SEED_SPECTRA_MAX`` stacks used last.  A scan runs the same seed queues
    at every order, so each is decomposed once per channel.
    """
    memo = _SEED_SPECTRA.setdefault(ch, {})
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
    p ≥ 1, its least one for p < 1, from one checked ``eigh`` (the
    Hermiticity check and the symmetrization of every eigensolve)."""
    _, vecs = la._spectrum(m, what="M(ψ)")
    return vecs[..., -1] if p >= 1.0 else vecs[..., 0]


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


def _ascent_candidates(m: np.ndarray, states: np.ndarray) -> np.ndarray:
    """Each state's p ≥ 1 power candidate, from its M = Φ̂(L) (:func:`_terms`).

    :func:`_power_candidates` takes the PSD M − μI, with
    μ = max(0, min_i (M_ii − Σ_{j≠i} |M_ij|)): Gershgorin's lower bound of
    λ_min(M), floored at 0, which bounds it too since L ⪰ 0 makes M PSD.  A
    negative bound would only damp the step.  The shift matters near p = 1,
    where M ≈ c·I and powers of M itself barely move ψ, and for channels
    close to the depolarizing one, whose Φ̂ lifts λ_min(M): at p = 3 the
    slowest of 10 restarts on ``near_depolarizing`` (d = 3, ε = 1e-3) takes
    15 steps, and 186 with the shift λ_min(L)·λ_min(Φ̂(I)) instead.  The
    exact step takes M itself (:func:`_exact_candidates`), not M − μI, whose
    entries can be too small for the Hermiticity check.
    """
    diag = np.arange(m.shape[-1])
    dm = m[:, diag, diag].real
    mu = np.maximum((2.0 * dm - np.abs(m).sum(axis=-1)).min(axis=-1), 0.0)
    shifted = m.copy()
    shifted[:, diag, diag] -= mu[:, None]
    return _power_candidates(shifted, states)


def _expect(m: np.ndarray, states: np.ndarray) -> np.ndarray:
    """⟨ψ|M|ψ⟩ for each row ψ of ``states`` and its M in the stack ``m``."""
    return np.einsum("ri,rij,rj->r", states.conj(), m, states).real


def _at_fixed_point(m: np.ndarray, states: np.ndarray, p: float) -> np.ndarray:
    """Whether each state ψ passes the fixed-point test that ends a p ≥ 1
    run, p·(λ_max(M) − ⟨ψ|M|ψ⟩) ≤ ``VALUE_TOL``, from ``eigvalsh`` of the
    stack ``m``.

    By convexity the exact step gains at least p·(λ_max − ⟨ψ|M|ψ⟩) in
    Tr Γ^p, so a state that fails the test is not a fixed point within
    ``VALUE_TOL``, and :func:`_iterate` sends it to the exact step.
    """
    return p * (np.linalg.eigvalsh(m)[:, -1] - _expect(m, states)) <= VALUE_TOL


#: an output with |Tr Γ| below this absolute bound counts as zero: a seed
#: with one is refused, and the guard turns down a candidate with one
_ZERO_TRACE = 1e-14


class _Runs(NamedTuple):
    """Per-row results of :func:`_iterate`, one entry per row of the stack."""

    state: np.ndarray  # (r, d_in) end state, the one its status is about
    value: np.ndarray  # its objective, Tr Γ^p (Tr Γ log Γ at p = 1)
    iterations: np.ndarray
    status: np.ndarray  # one of STATUSES
    violations: np.ndarray  # monotonicity violations
    fallbacks: np.ndarray  # guard fallbacks
    rejected: np.ndarray  # extrapolated candidates the guard turned down


def _iterate(ch: chan.KrausChannel, states, p: float, max_iters: int) -> _Runs:
    """Run the guarded iteration of the module docstring from every row of
    ``states`` (one state or an ``(r, d_in)`` stack, normalized here) for
    at most ``max_iters`` steps; returns each row's results as the arrays of
    :class:`_Runs`.

    Rows are independent: every stacked operation works matrix by matrix,
    so a row's results do not depend on which rows share the stack.  States
    of the wrong length raise ``ShapeError``, and a zero or non-finite state
    raises ``ValueError``, before any eigensolve; a seed whose output has
    |Tr Γ| < 1e-14, an absolute bound, raises ``ValueError`` before the
    first pass.  The guard also turns down every
    candidate whose output has |Tr Γ'| < 1e-14, so no run steps into the
    kernel of a map that is not trace-preserving.
    """
    psi = np.array(states, dtype=np.complex128, ndmin=2)
    if psi.ndim != 2 or psi.shape[1] != ch.d_in:
        raise la.ShapeError(f"states have shape {psi.shape}, expected (r, {ch.d_in})")
    psi /= _row_norms(psi, "state")[:, None]  # checked before any eigensolve
    kraus = ch.kraus_stack
    r = len(psi)

    w, v, t, tr = _seed_spectra(ch, psi, p)
    if np.any(np.abs(tr) < _ZERO_TRACE):
        raise ValueError("channel output has (numerically) zero trace")
    ascent = p >= 1.0
    sign = 1.0 if ascent else -1.0
    # each row's results, written when it leaves the stack; a row still
    # there after max_iters ran every pass
    state, value = np.empty_like(psi), np.empty_like(t)
    iterations = np.full(r, max_iters)
    status = np.full(r, "max_iters", dtype=object)
    violations, fallbacks, rejected = np.zeros((3, r), dtype=int)
    # the live stack: row j of each array below belongs to run rows[j]
    rows = np.arange(r)
    # each row's rung of the ladder, 0 extrapolated, 1 plain or 2 exact: in a
    # pass the one it is on, between passes the one its last step was
    # accepted on (2 before any step); a p < 1 row is always on 2.  A row
    # whose last step was on rung 0 or 1 stepped from x_prev, whose (unmixed)
    # power candidate was f_prev
    rung = np.full(r, 2)
    x_prev = f_prev = psi

    def leave(stop, how, *extra):
        """End the runs of the rows flagged in ``stop`` at pass ``it`` with
        the status ``how``: keep their results, and cut them from the stack
        and from ``extra``."""
        nonlocal rows, psi, t, w, v, rung, x_prev, f_prev
        done = rows[stop]
        state[done], value[done] = psi[stop], t[stop]
        iterations[done], status[done] = it, how
        rows, psi, t, w, v, rung, x_prev, f_prev, *extra = (
            x[~stop] for x in (rows, psi, t, w, v, rung, x_prev, f_prev, *extra)
        )
        return extra

    def candidates(sel, k):
        """The candidates of the rows ``sel`` on rung ``k``."""
        if k == 0:
            return _extrapolate(psi[sel], plain[sel], x_prev[sel], f_prev[sel])
        return plain[sel] if k == 1 else _exact_candidates(m[sel], p)

    def guard(tc, t, trc):
        """Whether candidates of objective ``tc`` and output trace ``trc``
        may replace states of objective ``t``."""
        return (sign * tc >= sign * t - VALUE_TOL) & (np.abs(trc) >= _ZERO_TRACE)

    for it in range(1, max_iters + 1):
        m = chan.apply_adjoint(ch, la._from_spectrum(_terms(w, p, weights=True), v))
        plain = psi  # no power rungs below p = 1
        if ascent:
            plain = _ascent_candidates(m, psi)
            # the plain step gains at least p·(⟨f|M|f⟩ − ⟨ψ|M|ψ⟩) in Tr Γ^p: a
            # row where that is at most VALUE_TOL ends here if it passes the
            # fixed-point test, before any output is decomposed, and starts
            # on the exact rung if it fails
            exact = p * (_expect(m, plain) - _expect(m, psi)) <= VALUE_TOL
            if exact.any():
                fixed = exact.copy()
                fixed[exact] = _at_fixed_point(m[exact], psi[exact], p)
                if fixed.any():
                    m, plain, exact = leave(fixed, "converged", m, plain, exact & ~fixed)
                    if not rows.size:
                        break
            # extrapolate only where the power residual contracted
            residual = np.linalg.norm(plain - psi, axis=-1)
            mix = (rung < 2) & (residual < np.linalg.norm(f_prev - x_prev, axis=-1))
            rung = np.where(exact, 2, np.where(mix, 0, 1))
        cand = plain.copy()  # rung 1's candidates; rungs 0 and 2 build theirs
        for k in (0, 2):
            on = rung == k
            if on.any():
                on = ... if on.all() else on  # views, not copies, of a whole stack
                cand[on] = candidates(on, k)
        wc, vc, tc, trc = _output_spectra(kraus, cand, p)
        ok = guard(tc, t, trc)
        # a row the guard rejects falls to the next rung in its own stack, so
        # that no run repeats a rejected step
        for k in range(3) if not ok.all() else ():
            fall = (rung == k) & ~ok
            if fall.any():
                (rejected if k == 0 else fallbacks)[rows[fall]] += 1
                if k == 2:  # no rung below: the row keeps its state and leaves
                    cand[fall], tc[fall] = psi[fall], t[fall]
                else:
                    rung[fall] = k + 1
                    cand[fall] = candidates(fall, k + 1)
                    wc[fall], vc[fall], tc[fall], trc[fall] = _output_spectra(kraus, cand[fall], p)
                    ok[fall] = guard(tc[fall], t[fall], trc[fall])
        x_prev, f_prev = psi, plain
        step = tc - t
        bad = sign * step < -VALUE_TOL  # should not happen: the step is guarded
        if bad.any():
            violations[rows[bad]] += 1
        psi, t, w, v = cand, tc, wc, vc
        # a rejected step on the last rung ends the run; a p < 1 run also ends
        # on a step that moves the objective by at most VALUE_TOL, a p ≥ 1 run
        # only at the fixed-point test
        stop = ~ok if ascent else np.abs(step) <= VALUE_TOL
        if stop.any():
            leave(stop, np.where(ok[stop], "converged", "guard_stall"))
            if not rows.size:
                break

    state[rows], value[rows] = psi, t
    return _Runs(state, value, iterations, status, violations, fallbacks, rejected)


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
    structured.extend(random_pure_state(d, rng_from(seed, i)) for i in range(n, restarts))
    queue = np.reshape(structured, (-1, d))
    queue.flags.writeable = False
    return queue, n


def estimate_nu_p(
    ch: chan.KrausChannel,
    p: float,
    config: OptimizerConfig | None = None,
    *,
    seeds=None,
    bound: float | None = None,
    haar=None,
) -> OptimizerReport:
    """Multistart estimate of the extremal output p-norm of a channel.

    Returns the best output p-norm over ``config.restarts`` fixed-point
    runs (largest for p > 1, smallest for p < 1), together with the
    achieving input and per-restart diagnostics.  Ties within
    ``VALUE_TOL`` resolve to the lowest restart index, so the canonical
    structured seeds win whenever they reach the optimum.  ``seeds``
    replaces the seed queue: exactly those states run, in order, and
    ``config.restarts`` is ignored.

    ``bound`` stops the search early: when the queue holds both structured
    and Haar seeds, the structured ones run first as one stack, and if
    their best value is already beyond ``bound`` (above it for p > 1, below
    it for p < 1) the report covers those restarts alone.  Otherwise the
    Haar seeds run as a second stack and the report is the one a single
    stack gives, field for field, since a restart's result depends only on
    its index.  p = 1 is rejected, and so is a p whose 1/p is not finite.

    ``haar``, a ``(k, d_in)`` stack of states, takes the first k Haar slots
    of the queue: the structured seeds run as before, then ``haar``, then
    the queue's own Haar seeds of the slots after k (``mult_scan``
    continues a search this way).  k must be at most the number of Haar
    slots, each state finite and nonzero (it is normalized as every seed
    is), and ``haar`` cannot go with ``seeds``: all are checked before any
    pass, so a malformed ``haar`` raises ``ValueError`` even when
    ``bound`` stops the search at its structured seeds.  A norm beyond the
    float range raises ``OverflowError``, and for p ≠ 1 a Tr Γ^p below the
    least normal float ``FloatingPointError``, each naming p and Tr Γ^p.
    """
    if not la._finite_order(p) or p == 1.0:
        raise ValueError(f"the iteration needs a finite p > 0 and 1/p, p != 1; got {p}")
    return _multistart(ch, p, config or OptimizerConfig(), seeds, bound, haar)


def _norm(t: float, p: float) -> float:
    """(Tr Γ^p)^(1/p), or an error naming both: ``OverflowError`` when the norm
    is out of range, and ``FloatingPointError`` for p ≠ 1 when Tr Γ^p is
    below ``sys.float_info.min``, the least normal float, where it has lost
    its digits or reads 0: every pure input of WH3 gives Tr Γ^2000 = 2^-1999,
    0 in floats.  At p = 1, t is Tr Γ log Γ, which may be 0."""
    if p != 1.0 and t < sys.float_info.min:
        raise FloatingPointError(f"Tr Γ^p underflows at p = {p}: Tr Γ^p = {t!r}")
    try:
        return t ** (1.0 / p)
    except OverflowError:
        raise OverflowError(
            f"the output norm at p = {p} is out of range: Tr Γ^p = {t!r} "
            f"to the power 1/p = {1.0 / p!r}"
        ) from None


def _row_norms(states: np.ndarray, what: str) -> np.ndarray:
    """The norms of the rows of the stack ``states``, or ``ValueError``
    naming the first row, as ``what`` and its index, whose norm is zero or
    not finite."""
    norms = np.linalg.norm(states, axis=1)
    bad = ~(np.isfinite(norms) & (norms > 0.0))
    if np.any(bad):
        i = np.flatnonzero(bad)[0]
        raise ValueError(f"{what} {i} has norm {norms[i]}; need a finite, nonzero vector")
    return norms


def _checked_haar(haar, queue: np.ndarray, n_structured: int) -> np.ndarray:
    """The seed ``queue``, whose first ``n_structured`` seeds are structured,
    with the stack ``haar`` in its first Haar slots; ``ValueError`` unless
    ``haar`` is a ``(k, d)`` stack of the queue's states with k at most its
    number of Haar slots, each finite and nonzero.  The rows are not
    normalized here, so carried states keep their bits."""
    kept = np.asarray(haar, dtype=np.complex128)
    slots = len(queue) - n_structured
    if kept.shape[1:] != queue.shape[1:] or len(kept) > slots:
        need = f"(k, {queue.shape[1]}) with k <= {slots}"
        raise ValueError(f"haar has shape {kept.shape}; need {need}")
    _row_norms(kept, "haar row")
    return np.concatenate([queue[:n_structured], kept, queue[n_structured + len(kept) :]])


def _multistart(
    ch, p: float, cfg: OptimizerConfig, seeds=None, bound=None, haar=None
) -> OptimizerReport:
    """:func:`estimate_nu_p` without the order check, so p = 1 too."""
    if seeds is None:
        seeds, n_structured = _seed_queue(ch.d_in, cfg.seed, cfg.restarts)
        if haar is not None:
            seeds = _checked_haar(haar, seeds, n_structured)
    else:
        if haar is not None:
            raise ValueError("haar replaces part of the seed queue; it cannot go with seeds")
        if not len(seeds):
            raise ValueError("need at least one seed")
        n_structured = 0
    # with a bound the structured seeds run first, as a stage of their own
    split = bound is not None and 0 < n_structured < len(seeds)

    sign = 1.0 if p >= 1.0 else -1.0
    stage_runs: list[_Runs] = []
    ts: list[float] = []  # each restart's Tr Γ^p
    best = 0
    for lo, hi in [(0, n_structured), (n_structured, len(seeds))] if split else [(0, len(seeds))]:
        stage_runs.append(_iterate(ch, seeds[lo:hi], p, cfg.max_iters))
        for t in stage_runs[-1].value.tolist():
            ts.append(t)
            # a restart replaces the best only when it beats it by more
            # than VALUE_TOL, so ties go to the lowest index
            if sign * (t - ts[best]) > VALUE_TOL:
                best = len(ts) - 1
        if bound is not None and sign * (_norm(ts[best], p) - bound) > 0.0:
            break

    runs = _Runs(*map(np.concatenate, zip(*stage_runs)))
    states = la._canonical_phases(runs.state[..., None])[..., 0]
    # the rotation can leave ~1e-18 on the lead's imaginary part
    lead = la._first_significant(states[..., None])[..., 0]
    states.imag[np.arange(len(states)), lead] = 0.0
    values = tuple(_norm(t, p) for t in ts)
    statuses = tuple(runs.status.tolist())
    return OptimizerReport(
        p=p,
        direction="max" if p >= 1.0 else "min",
        best_value=values[best],
        best_trace_power=ts[best],
        best_input=states[best],
        best_restart=best,
        restart_values=values,
        restart_states=states,
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
    ``search_states`` is the ``(k, d_in)`` array of the search's Haar end
    states, the rows of its ``restart_states`` after the structured seeds;
    it is ``(0, d_in)`` when its Haar part did not run or a certificate
    decided.  When a ``haar`` stack of k states ran as the first
    k Haar slots (in ``mult_scan``, module docstring, "Multiplicativity",
    the end states taken from a neighbouring row), ``continued_restarts``
    is k and ``fresh_restarts`` counts the queue's own Haar seeds that ran
    after them.  Both are 0 when the search's Haar part did not run or was
    the queue's own.
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
    search_states: np.ndarray
    continued_restarts: int
    fresh_restarts: int
    singles_converged: bool
    tensor_dim: int
    seed: int
    monotonicity_violations: int
    config: dict


@dataclass(frozen=True)
class ScanReport:
    """Multiplicativity scan over Rényi orders (:func:`mult_scan`): the
    checked ``rows``, and the violation onset's ``bracket`` and its midpoint
    ``threshold``, both ``None`` without an onset.

    ``placed_by`` says how the bracket was reached, ``"grid"``,
    ``"gap_root"`` or ``"bisection"`` (module docstring,
    "Multiplicativity"), and is ``None`` without an onset;
    ``gap_evaluations`` counts the evaluations of the gap curve, which are
    not rows.
    """

    rows: tuple
    threshold: float | None
    bracket: tuple | None
    placed_by: str | None
    gap_evaluations: int


def _tensor_dim(a: chan.KrausChannel, b: chan.KrausChannel) -> int:
    """d_in(A)·d_in(B), or ``ValueError`` above ``TENSOR_DIM_MAX``."""
    tensor_dim = a.d_in * b.d_in
    if tensor_dim > TENSOR_DIM_MAX:
        raise ValueError(
            f"tensor input dimension {tensor_dim} exceeds "
            f"TENSOR_DIM_MAX = {TENSOR_DIM_MAX} (runtime grows sharply)"
        )
    return tensor_dim


def _violation_bound(product: float, p: float) -> float:
    """The tensor value that a violation must pass at order p, above it for
    p > 1 and below it for p < 1: ν̂_p(A)·ν̂_p(B)·(1 ± ``VIOLATION_MARGIN``)."""
    return product * (1.0 + math.copysign(VIOLATION_MARGIN, p - 1.0))


def mult_check(
    a: chan.KrausChannel,
    b: chan.KrausChannel,
    p: float,
    config: OptimizerConfig | None = None,
    certificates=(),
    *,
    tensor: chan.KrausChannel | None = None,
    haar=None,
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

    ``haar``, a ``(k, d_in)`` stack of states, goes to the tensor search
    (``estimate_nu_p(..., haar=...)``: it takes the queue's first k Haar
    slots), and is checked against the tensor queue before any estimate
    runs, so also when a certificate decides.  When the search's Haar part
    runs, the report counts k continued restarts and, as fresh ones, the
    queue's own Haar seeds that ran after them (``mult_scan`` continues its
    searches this way).
    """
    cfg = config or OptimizerConfig()
    tensor_dim = _tensor_dim(a, b)
    if tensor is None:
        tensor = chan.tensor(a, b)
    elif (tensor.d_in, tensor.d_out) != (tensor_dim, a.d_out * b.d_out):
        raise la.ShapeError("tensor is not a channel on the spaces of A⊗B")
    if haar is not None:  # checked before any estimate
        _checked_haar(haar, *_seed_queue(tensor_dim, cfg.seed, cfg.tensor_restarts))
    rep_a = estimate_nu_p(a, p, cfg)
    rep_b = rep_a if b is a else estimate_nu_p(b, p, cfg)
    product = rep_a.best_value * rep_b.best_value
    # an unconverged single estimate is too low (too high for p < 1), so a
    # tensor value beyond the product would not show a violation
    singles_converged = all(rep_a.converged) and all(rep_b.converged)
    sign = 1.0 if p > 1.0 else -1.0
    bound = _violation_bound(product, p) if singles_converged else None

    def violates(value: float) -> bool:
        return bound is not None and sign * (value - bound) > 0.0

    tensor_cfg = replace(cfg, restarts=cfg.tensor_restarts)
    estimates = [rep_a] if b is a else [rep_a, rep_b]
    polished, search_states = None, np.empty((0, tensor_dim), dtype=np.complex128)
    continued_restarts = fresh_restarts = 0
    if len(certificates):
        polished = estimate_nu_p(tensor, p, tensor_cfg, seeds=certificates)
        estimates.append(polished)
    if polished is not None and violates(polished.best_value):
        rep_ab, decided_by, tensor_restarts_run = polished, "certificate", 0
    else:
        rep_ab = estimate_nu_p(tensor, p, tensor_cfg, bound=bound, haar=haar)
        decided_by, tensor_restarts_run = "search", len(rep_ab.restart_values)
        search_states = rep_ab.restart_states[rep_ab.n_structured_seeds :]
        if len(search_states) and haar is not None:
            continued_restarts, fresh_restarts = len(haar), len(search_states) - len(haar)
        estimates.append(rep_ab)
        # a polished state replaces the search's best only when it beats it
        # by more than VALUE_TOL, the tie rule of estimate_nu_p
        if polished is not None and (
            sign * (polished.best_trace_power - rep_ab.best_trace_power) > VALUE_TOL
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
        search_states=search_states,
        continued_restarts=continued_restarts,
        fresh_restarts=fresh_restarts,
        singles_converged=singles_converged,
        tensor_dim=tensor_dim,
        seed=cfg.seed,
        monotonicity_violations=sum(r.monotonicity_violations for r in estimates),
        config=asdict(cfg),
    )


#: The last Haar slots of each continued tensor search of ``mult_scan``,
#: which run the queue's own Haar seeds instead of the neighbouring row's
#: end states (module docstring, "Multiplicativity").  Against a scan that
#: continues nothing, a warm default WH3 scan at seed 0 (57.9 ms, 2 077 eigh
#: matrices, on a 2-CPU VM) took 25 % less time with 32 (1 533 matrices)
#: and 28 % less with 16 (1 411), every answer unchanged.  The larger share
#: is kept because only states that start afresh at an order can find a
#: maximum that appears between two orders.
_FRESH_SEEDS = 32

#: The gap curve's root is searched until its bracket is at most this share
#: of ``resolution`` wide, so each confirming check, half a ``resolution``
#: from the point found, is at least a quarter ``resolution`` from g's root.
#: On the default WH3 scan that takes three evaluations inside the bracket;
#: a tighter tolerance moves the threshold by 4e-8 and takes three more.
_GAP_ROOT_TOL = 0.25

#: Evaluations of the gap curve inside the bracket after which the root
#: search takes its last secant point.
_GAP_STEPS_MAX = 14


def _onset(rows: dict, lo: float = 0.0, hi: float = math.inf):
    """The first pair of neighbouring orders in [lo, hi] among the checked
    ``rows`` ({p: MultReport}) whose verdicts go from not violated to
    violated, or ``None``.  A pair on both sides of p = 1 is no onset: the
    verdict's direction flips there."""
    ps = sorted(p for p in rows if lo <= p <= hi)
    for x, y in zip(ps, ps[1:]):
        if (x > 1.0) == (y > 1.0) and not rows[x].violated and rows[y].violated:
            return x, y
    return None


def _illinois(g, a: float, b: float, tol: float, steps: int) -> float | None:
    """A root of g in [a, b] by the Illinois variant of regula falsi (Dowell
    and Jarratt, BIT 11 (1971) 168), or ``None`` unless g(a) ≤ 0 < g(b).

    After g(a) and g(b), each step evaluates g at the secant point of the
    bracket, or at its midpoint when roundoff puts that point outside, and
    keeps the sign change; an end that stays twice running has its g
    halved, so that both ends close in.  It stops once the bracket is at
    most ``tol`` wide, or after ``steps`` steps, and returns the last secant
    point.
    """
    ga, gb = g(a), g(b)
    if not ga <= 0.0 < gb:
        return None
    n, side = 0, 0
    while True:
        x = (a * gb - b * ga) / (gb - ga)
        if not a < x < b:
            x = 0.5 * (a + b)
        if b - a <= tol or n == steps:
            return x
        gx = g(x)
        n += 1
        if gx > 0.0:
            b, gb = x, gx
            if side == 1:
                ga *= 0.5
            side = 1
        else:
            a, ga = x, gx
            if side == -1:
                gb *= 0.5
            side = -1


def mult_scan(
    a: chan.KrausChannel,
    b: chan.KrausChannel,
    p_grid,
    config: OptimizerConfig | None = None,
    resolution: float = 0.01,
) -> ScanReport:
    """Run mult_check on a grid and place the first violation onset.

    The onset is narrowed to a bracket at most ``resolution`` wide (or as
    narrow as floats allow), and the threshold is the bracket's midpoint;
    how it is found and placed is in the module docstring,
    "Multiplicativity".  Every checked point appears in ``rows``, sorted by
    p.  ``resolution`` must be finite and positive, and every grid point
    finite, positive and not 1, with a finite 1/p; both are checked before
    any ``mult_check``.

    Points are checked in order (the distinct grid points ascending, then
    each point the placement asks for), all on one A⊗B built here, and
    every violated row's certificate goes to the ``mult_check`` calls after
    it (bit-identical certificates once).  A later point whose polished
    certificates already certify a violation skips the tensor search; each
    row's ``decided_by`` says which way it was decided.  Above p = 1 a
    later search continues from the Haar end states of the nearest searched
    row, less their last ``_FRESH_SEEDS``, whose slots run the queue's own
    Haar seeds (module docstring), and each row's ``continued_restarts``
    and ``fresh_restarts`` count the two.
    """
    if not (math.isfinite(resolution) and resolution > 0.0):
        raise ValueError(f"resolution must be finite and > 0, got {resolution}")
    points = [float(p) for p in p_grid]
    if not points:
        raise ValueError("empty p grid")
    for p in points:
        if not la._finite_order(p) or p == 1.0:
            raise ValueError(f"grid points need a finite p > 0 and 1/p, p != 1; got {p}")
    _tensor_dim(a, b)
    cfg = config or OptimizerConfig()
    tensor_cfg = replace(cfg, restarts=cfg.tensor_restarts)
    tensor = chan.tensor(a, b)
    certificates: list[np.ndarray] = []
    rows: dict = {}

    def continued(p: float):
        """The states that take the first Haar slots of the tensor queue at p,
        as ``mult_check`` takes them, or ``None`` for the queue's own: for
        p > 1, the end states of the nearest row above 1 whose search ran
        its Haar part (ties to the lower p) less their last ``_FRESH_SEEDS``,
        whose slots run the queue's own Haar seeds."""
        searched = [q for q in rows if q > 1.0 and len(rows[q].search_states)]
        if p < 1.0 or not searched:
            return None
        ends = rows[min(searched, key=lambda q: (abs(q - p), q))].search_states
        return ends[: max(len(ends) - _FRESH_SEEDS, 0)]

    def check(p: float) -> MultReport:
        if p not in rows:
            r = mult_check(
                a, b, p, config, certificates=tuple(certificates), tensor=tensor,
                haar=continued(p),
            )
            if r.violated and not any(np.array_equal(r.certificate, c) for c in certificates):
                certificates.append(r.certificate)
            rows[p] = r
        return rows[p]

    def gap(p: float) -> float:
        """g(p) of the module docstring, > 0 exactly where the polished
        certificates pass the violation bound."""
        nonlocal evaluations
        evaluations += 1
        if p in rows:
            product = rows[p].product_of_singles
        else:
            nu_a = estimate_nu_p(a, p, cfg).best_value
            product = nu_a * (nu_a if b is a else estimate_nu_p(b, p, cfg).best_value)
        polished = estimate_nu_p(tensor, p, tensor_cfg, seeds=tuple(certificates))
        bound = _violation_bound(product, p)
        return math.copysign(1.0, p - 1.0) * (math.log(polished.best_value) - math.log(bound))

    for p in sorted(set(points)):
        check(p)

    bracket, threshold, placed_by, evaluations = _onset(rows), None, None, 0
    if bracket is not None:
        lo, hi = bracket
        placed_by = "grid"
        if hi - lo > resolution:
            placed_by = "bisection"
            root = None
            if certificates:
                root = _illinois(gap, lo, hi, resolution * _GAP_ROOT_TOL, _GAP_STEPS_MAX)
            if root is not None:
                lower = max(lo, root - resolution / 2.0)
                upper = min(hi, root + resolution / 2.0)
                while upper - lower > resolution:
                    upper = math.nextafter(upper, lower)
                if not check(lower).violated and check(upper).violated:
                    placed_by = "gap_root"
                lo, hi = _onset(rows, lo, hi)
            while hi - lo > resolution:
                mid = (lo + hi) / 2.0
                if mid in (lo, hi):
                    break
                if check(mid).violated:
                    hi = mid
                else:
                    lo = mid
        threshold = (lo + hi) / 2.0
        bracket = (lo, hi)

    ordered = tuple(rows[p] for p in sorted(rows))
    return ScanReport(
        rows=ordered,
        threshold=threshold,
        bracket=bracket,
        placed_by=placed_by,
        gap_evaluations=evaluations,
    )
