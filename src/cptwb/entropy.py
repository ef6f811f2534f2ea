"""Output entropies of channels: von Neumann, Rényi, coherent information,
and the minimal output Rényi entropy.

All entropies are in nats.  Rényi order p = 1 dispatches to von Neumann,
p = 0 reports the log of the numerical rank; fractional orders use the
clamped support spectrum so singular states are safe.  The minimal output
quantities (``estimate_smin_p``, ``min_output_rank``) run the fixed-point
search of :mod:`cptwb.optimize`, at p = 1 on its von Neumann objective.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from . import linalg as la
from . import channels as chan
from . import optimize as opt

__all__ = [
    "von_neumann",
    "renyi",
    "coherent_information",
    "min_output_rank",
    "SminReport",
    "estimate_smin_p",
]


def _unit_trace_spectrum(rho, who: str) -> np.ndarray:
    """Eigenvalues of a nonzero PSD matrix, divided by their sum."""
    w = la.psd_eigvals(rho, what="density matrix")
    t = w.sum()
    if t <= 0.0:
        raise la.NotPSDError(f"{who} needs a nonzero PSD matrix")
    return w / t


def von_neumann(rho) -> float:
    """S(ρ) = −Σ λ log λ over the support spectrum (nats)."""
    w = _unit_trace_spectrum(rho, "von_neumann")
    w = w[w > 0.0]
    return float(-np.sum(w * np.log(w)))


def renyi(rho, p: float) -> float:
    """Rényi entropy S_p(ρ) = log(Tr ρ^p) / (1 − p).

    p = 0 returns log(numerical rank); |p − 1| < 1e-9 dispatches to the
    von Neumann limit.  A negative or non-finite p is rejected.
    """
    if not (p >= 0 and math.isfinite(p)):
        raise ValueError(f"Rényi order must be finite and >= 0, got {p}")
    if abs(p - 1.0) < 1e-9:
        return von_neumann(rho)
    w = _unit_trace_spectrum(rho, "renyi")
    if p == 0:
        return math.log(np.count_nonzero(la._support(w)))
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
    reports the smallest ``numerical_rank`` among the outputs of every
    restart's reported state, converged or not, since the rank of any
    state's output bounds the minimum, together with the input achieving
    it (the first, in restart order, on a tie).  The outputs come from one
    ``channels.apply`` call on the stack of restart states, and their
    singular values from one ``svd`` call.
    """
    report = opt.estimate_nu_p(ch, 0.05, config=config)
    outs = chan.apply(ch, la._outer(report.restart_states))
    s = np.linalg.svd(outs, compute_uv=False)
    ranks = np.count_nonzero(la._support(s), axis=-1)
    best = int(np.argmin(ranks))
    return int(ranks[best]), report.restart_states[best]


@dataclass(frozen=True)
class SminReport:
    """Minimal output Rényi entropy estimate."""

    p: float
    value: float
    argmin: np.ndarray
    nu_value: float | None
    config: dict


def estimate_smin_p(
    ch: chan.KrausChannel,
    p: float,
    config: opt.OptimizerConfig | None = None,
) -> SminReport:
    """Minimal output Rényi-p entropy via the fixed-point search.

    For p ≠ 1 this is (1/(1−p))·log of the extremal Tr Φ(ρ)^p from
    ``optimize.estimate_nu_p`` (max for p > 1, min for p < 1 — both
    minimize S^p).  p = 1 runs the same search on the von Neumann
    objective, maximizing Tr Φ(ρ) log Φ(ρ) = −S (see :mod:`cptwb.optimize`).
    p = 0 reports log of the minimal output rank at the p = 0.05 proxy.
    ``nu_value`` is the extremal output p-norm, None at p = 0 and 1.  A
    p > 0 must have a finite 1/p.

    For p > 0 the channel must be trace-preserving (Σ A_k†A_k = I within
    ``channels.TP_TOL``, the fixed bound of ``channels.validate_cpt``):
    the value is a functional of Φ(ρ), an entropy only when Tr Φ(ρ) = 1.
    """
    cfg = config or opt.OptimizerConfig()
    if not (p == 0.0 or la._finite_order(p)):
        raise ValueError(f"need p = 0, or a finite p > 0 and 1/p; got {p}")
    if p > 0.0 and (resid := chan._tp_residual(ch)) > chan.TP_TOL:
        raise ValueError(
            "estimate_smin_p needs a trace-preserving channel at p > 0: "
            f"sum A†A deviates from identity by {resid:.3e}"
        )

    if p == 0.0:
        rank, state = min_output_rank(ch, config=cfg)
        return SminReport(
            p=0.0,
            value=math.log(rank),
            argmin=state,
            nu_value=None,
            config=asdict(cfg),
        )

    report = opt._multistart(ch, p, cfg)
    t = report.best_trace_power
    return SminReport(
        p=p,
        value=-t if p == 1.0 else math.log(t) / (1.0 - p),
        argmin=report.best_input,
        nu_value=None if p == 1.0 else report.best_value,
        config=asdict(cfg),
    )
