"""Output entropies of channels: von Neumann, Rényi, coherent information.

All entropies are in nats.  Rényi order p = 1 dispatches to von Neumann,
p = 0 reports the log of the numerical rank; fractional orders use the
clamped support spectrum so singular states are safe.
"""

from __future__ import annotations

import math

import numpy as np

from . import linalg as la
from . import channels as chan

__all__ = [
    "von_neumann",
    "renyi",
    "coherent_information",
    "min_output_rank",
]


def von_neumann(rho) -> float:
    """S(ρ) = −Σ λ log λ over the support spectrum (nats)."""
    w = la.psd_eigvals(rho, what="density matrix")
    t = w.sum()
    if t <= 0.0:
        raise la.NotPSDError("von_neumann needs a nonzero PSD matrix")
    w = w / t
    w = w[w > 0.0]
    return float(-np.sum(w * np.log(w)))


def renyi(rho, p: float) -> float:
    """Rényi entropy S_p(ρ) = log(Tr ρ^p) / (1 − p).

    p = 0 returns log(numerical rank); |p − 1| < 1e-9 dispatches to the
    von Neumann limit.  Negative p is rejected.
    """
    if p < 0:
        raise ValueError(f"Rényi order must be >= 0, got {p}")
    w = la.psd_eigvals(rho, what="density matrix")
    t = w.sum()
    if t <= 0.0:
        raise la.NotPSDError("renyi needs a nonzero PSD matrix")
    w = w / t
    if p == 0:
        return math.log(np.count_nonzero(la._support(w)))
    if abs(p - 1.0) < 1e-9:
        w = w[w > 0.0]
        return float(-np.sum(w * np.log(w)))
    w = w[la._support(w)]
    return float(math.log(np.sum(w**p)) / (1.0 - p))


def coherent_information(ch: chan.KrausChannel, rho) -> float:
    """I_c(ρ, Φ) = S(Φ(ρ)) − S(Φ^C(ρ)) with the stored Kraus representation."""
    out = chan.apply(ch, rho)
    env = chan.apply(chan.complement(ch), rho)
    return von_neumann(out) - von_neumann(env)


def min_output_rank(ch: chan.KrausChannel, config=None) -> tuple[int, np.ndarray]:
    """Minimal numerical output rank over a multistart pure-state search.

    Runs the fixed-point optimizer at the small Rényi order 0.05, where
    minimizing Tr Φ(ρ)^p is a smooth proxy for minimizing rank, and
    reports the smallest ``numerical_rank`` among the converged outputs,
    together with the input achieving it.
    """
    from . import optimize  # local import: optimize is built on top of entropy-free modules

    report = optimize.estimate_nu_p(ch, 0.05, config=config)
    best_rank = None
    best_state = None
    for psi in report.restart_states:
        out = chan.apply(ch, np.outer(psi, np.conj(psi)))
        r = la.numerical_rank(out)
        if best_rank is None or r < best_rank:
            best_rank = r
            best_state = psi
    return int(best_rank), best_state
