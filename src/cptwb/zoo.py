"""Constructors for the reference channels used throughout the package.

Every constructor returns a :class:`~cptwb.channels.KrausChannel` that
passes ``validate_cpt``.  Families:

``identity_channel(d)``
    ρ ↦ ρ.
``depolarizing(d)``
    ρ ↦ (Tr ρ) I/d, Kraus {|e_i⟩⟨e_j|/√d}.
``werner_holevo(d)``
    ρ ↦ ((Tr ρ) I − ρᵀ)/(d−1), Kraus set the antisymmetric generators
    (|e_j⟩⟨e_k| − |e_k⟩⟨e_j|)/√(d−1), j < k.
``depolarized_wh(d, x)``
    x·id + (1−x)·werner_holevo, mixed at the Choi level, Kraus recovered
    by ``choi_to_kraus``.  x = 1/3, d = 3 is the channel
    ρ ↦ (I + ρ − ρᵀ)/3.
``fss_psi()``
    The d = 3 channel ρ ↦ (I + ρ − ρᵀ)/3 as an explicit four-operator
    Kraus set; equal to depolarized_wh(3, 1/3) but built independently.
``shift_subunitary(d, unitaries)``
    d Kraus operators (1/√(d−1)) Xᵏ·diag(U_k, 0)·X^{−k}: the (d−1)×(d−1)
    unitary U_k embedded on the cyclically shifted coordinate window
    {k, …, k+d−2} (mod d), annihilating the remaining coordinate.
``qubit_generalized_extreme(alpha, u, v, w)``
    The two-Kraus qubit-input form A₁ = Σ α_j |v_j⟩⟨u_j|,
    A₂ = Σ √(1−α_j²) |w_j⟩⟨u_j| with Choi rank ≤ 2.
``near_depolarizing(d, epsilon, seed)``
    (1−δ)·depolarizing + δ·(seeded random channel) with δ calibrated on a
    1000-sample pure-state probe so every output stays within ``epsilon``
    of I/d in max-entry norm.

Normalization note: the 1/√(d−1) prefactors above are forced by trace
preservation (Σ_{j<k} over the antisymmetric generators covers each
diagonal entry d−1 times, and the shifted windows cover each coordinate
d−1 times).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from . import linalg as la
from . import channels as chan
from ._rng import haar_isometry, haar_unitary, random_pure_state, rng_from

__all__ = [
    "identity_channel",
    "depolarizing",
    "werner_holevo",
    "mix_with_identity",
    "depolarized_wh",
    "fss_psi",
    "cyclic_shift",
    "shift_subunitary",
    "cycle_window_unitaries",
    "qubit_generalized_extreme",
    "random_channel",
    "near_depolarizing",
    "Param",
    "Family",
    "ChannelSpec",
    "FAMILIES",
]


def identity_channel(d: int) -> chan.KrausChannel:
    """The identity channel on d dimensions."""
    _check_dim(d, 1)
    return chan.KrausChannel(d_in=d, d_out=d, kraus=(np.eye(d, dtype=np.complex128),))


def depolarizing(d: int) -> chan.KrausChannel:
    """Completely depolarizing channel ρ ↦ (Tr ρ) I/d."""
    _check_dim(d, 1)
    ops = []
    for i in range(d):
        for j in range(d):
            e = np.zeros((d, d), dtype=np.complex128)
            e[i, j] = 1.0 / np.sqrt(d)
            ops.append(e)
    return chan.KrausChannel(d_in=d, d_out=d, kraus=tuple(ops))


def werner_holevo(d: int) -> chan.KrausChannel:
    """ρ ↦ ((Tr ρ) I − ρᵀ)/(d−1) via the d(d−1)/2 antisymmetric generators."""
    _check_dim(d, 2)
    c = 1.0 / np.sqrt(d - 1.0)
    ops = []
    for j in range(d):
        for k in range(j + 1, d):
            a = np.zeros((d, d), dtype=np.complex128)
            a[j, k] = c
            a[k, j] = -c
            ops.append(a)
    return chan.KrausChannel(d_in=d, d_out=d, kraus=tuple(ops))


def mix_with_identity(ch: chan.KrausChannel, x: float) -> chan.KrausChannel:
    """Convex combination x·id + (1−x)·ch, mixed at the Choi level.

    Requires d_in == d_out and 0 ≤ x ≤ 1; the Kraus set of the mixture is
    recovered from the mixed Choi matrix, so it is minimal.
    """
    if ch.d_in != ch.d_out:
        raise la.ShapeError("identity mixing needs d_in == d_out")
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"mixing weight x={x} outside [0, 1]")
    if x == 0.0:
        return ch
    return _choi_mixture(ch, identity_channel(ch.d_in), x)


def _choi_mixture(a: chan.KrausChannel, b: chan.KrausChannel, t: float) -> chan.KrausChannel:
    """Minimal Kraus set of (1−t)·a + t·b, mixed at the Choi level."""
    mixed = (1.0 - t) * chan.kraus_to_choi(a).matrix + t * chan.kraus_to_choi(b).matrix
    return chan.choi_to_kraus(chan.ChoiMatrix(d_in=a.d_in, d_out=a.d_out, matrix=mixed))


def depolarized_wh(d: int, x: float) -> chan.KrausChannel:
    """The family Φ_x = x·id + (1−x)·werner_holevo(d)."""
    return mix_with_identity(werner_holevo(d), x)


def fss_psi() -> chan.KrausChannel:
    """Four-Kraus d=3 channel ρ ↦ (I + ρ − ρᵀ)/3.

    Closed-form Kraus set {I/√3, (E_jk − E_kj)/√3 for j < k}: the identity
    term carries ρ/3 and the three antisymmetric generators carry
    (2/3)·((Tr ρ) I − ρᵀ)/2, so the action is (I·Tr ρ + ρ − ρᵀ)/3 exactly
    and the channel equals ``depolarized_wh(3, 1/3)`` (built here from a
    different code path, so the identity is a real cross-check).

    Every real density matrix maps to I/3 (ρ = ρᵀ kills the antisymmetric
    part), yet the channel is not a measure-and-prepare map: its Choi
    matrix has a negative partial transpose (eigenvalue −1/9).  In
    particular it admits *no* Kraus representation by scaled rank-one
    projectors: any such operator would have to live in
    span{I, E_jk − E_kj}, which contains no rank-one Hermitian matrix.
    """
    ops = [np.eye(3, dtype=np.complex128) / np.sqrt(3.0)]
    for j in range(3):
        for k in range(j + 1, 3):
            a = np.zeros((3, 3), dtype=np.complex128)
            a[j, k] = 1.0 / np.sqrt(3.0)
            a[k, j] = -1.0 / np.sqrt(3.0)
            ops.append(a)
    return chan.KrausChannel(d_in=3, d_out=3, kraus=tuple(ops))


def cyclic_shift(d: int) -> np.ndarray:
    """The cyclic shift X|e_j⟩ = |e_{j+1 mod d}⟩."""
    x = np.zeros((d, d), dtype=np.complex128)
    for j in range(d):
        x[(j + 1) % d, j] = 1.0
    return x


def shift_subunitary(d: int, unitaries) -> chan.KrausChannel:
    """Sub-unitary channel from d unitaries of size (d−1)×(d−1).

    The k-th Kraus operator embeds U_k on the coordinate window
    {k, …, k+d−2} (mod d) — equivalently (1/√(d−1))·Xᵏ·diag(U_k, 0)·X^{−k}
    — so each coordinate is annihilated by exactly one operator and the
    channel is trace preserving.  Choi rank is at most d.
    """
    _check_dim(d, 2)
    mats = [la.as_matrix(u) for u in unitaries]
    if len(mats) != d:
        raise ValueError(f"need exactly {d} unitaries, got {len(mats)}")
    x = cyclic_shift(d)
    c = 1.0 / np.sqrt(d - 1.0)
    ops = []
    for k, u in enumerate(mats):
        if u.shape != (d - 1, d - 1):
            raise la.ShapeError(
                f"unitary {k} has shape {u.shape}, expected {(d - 1, d - 1)}"
            )
        if np.abs(la.dagger(u) @ u - np.eye(d - 1)).max() > 1e-10:
            raise ValueError(f"block {k} is not unitary")
        block = np.zeros((d, d), dtype=np.complex128)
        block[: d - 1, : d - 1] = u
        xk = np.linalg.matrix_power(x, k)
        ops.append(c * (xk @ block @ xk.T))
    return chan.KrausChannel(d_in=d, d_out=d, kraus=tuple(ops))


def cycle_window_unitaries(d: int, cycles) -> list[np.ndarray]:
    """Encode (d−1)-cycles on {1..d} as window blocks for shift_subunitary.

    Each cycle (given as a tuple of 1-based symbols, e.g. ``(1, 2, 3)``
    meaning 1→2→3→1) must move exactly the symbols of one coordinate
    window {k+1, …, k+d−1} (mod d, 1-based) and fix the remaining symbol;
    the cycles may be listed in any order.  Returns the window-ordered
    unitary blocks U_0..U_{d−1} such that
    ``shift_subunitary(d, blocks)`` has Kraus operators equal to
    (1/√(d−1)) times the cycle's permutation matrix with the fixed point's
    diagonal entry zeroed.
    """
    _check_dim(d, 3)
    if len(cycles) != d:
        raise ValueError(f"need exactly {d} cycles, got {len(cycles)}")
    perms = []
    for cyc in cycles:
        syms = [s - 1 for s in cyc]
        if len(syms) != d - 1 or len(set(syms)) != d - 1:
            raise ValueError(f"cycle {cyc} is not a (d-1)-cycle on distinct symbols")
        if not all(0 <= s < d for s in syms):
            raise ValueError(f"cycle {cyc} has symbols outside 1..{d}")
        perms.append(syms)

    blocks: list[np.ndarray | None] = [None] * d
    for syms in perms:
        # the window {k0, …, k0+d−2} (mod d) fixes only k0 − 1
        (fixed,) = set(range(d)).difference(syms)
        k0 = (fixed + 1) % d
        if blocks[k0] is not None:
            raise ValueError("two cycles share the same coordinate window")
        pos = {(k0 + j) % d: j for j in range(d - 1)}
        u = np.zeros((d - 1, d - 1), dtype=np.complex128)
        for i, sym in enumerate(syms):
            u[pos[syms[(i + 1) % (d - 1)]], pos[sym]] = 1.0
        blocks[k0] = u
    return blocks


def qubit_generalized_extreme(alpha, u=None, v=None, w=None) -> chan.KrausChannel:
    """Two-Kraus qubit-input channel A₁ = Σ α_j|v_j⟩⟨u_j|, A₂ = Σ √(1−α_j²)|w_j⟩⟨u_j|.

    ``alpha`` is a pair in [0, 1]; ``u`` is an orthonormal pair in C²
    (columns), ``v`` and ``w`` orthonormal pairs in the output space
    (columns, any common dimension ≥ 2).  Defaults: computational bases.
    The result has two Kraus operators, hence Choi rank ≤ 2 = d_in, so it
    is generalized extreme by construction.
    """
    a = np.asarray(alpha, dtype=float)
    if a.shape != (2,) or np.any(a < 0) or np.any(a > 1):
        raise ValueError("alpha must be two numbers in [0, 1]")
    u = np.eye(2, dtype=np.complex128) if u is None else la.as_matrix(u)
    v = np.eye(2, dtype=np.complex128) if v is None else la.as_matrix(v)
    w = v if w is None else la.as_matrix(w)
    if u.shape != (2, 2):
        raise la.ShapeError("u must be a 2x2 orthonormal pair (columns)")
    if v.shape != w.shape or v.shape[1] != 2 or v.shape[0] < 2:
        raise la.ShapeError("v and w must be (d_out, 2) with d_out >= 2")
    for name, m in (("u", u), ("v", v), ("w", w)):
        if np.abs(la.dagger(m) @ m - np.eye(2)).max() > 1e-10:
            raise ValueError(f"{name} columns are not orthonormal")
    d_out = v.shape[0]
    a1 = sum(a[j] * np.outer(v[:, j], np.conj(u[:, j])) for j in range(2))
    a2 = sum(
        np.sqrt(1.0 - a[j] ** 2) * np.outer(w[:, j], np.conj(u[:, j]))
        for j in range(2)
    )
    return chan.KrausChannel(d_in=2, d_out=d_out, kraus=(a1, a2))


def random_channel(d_in: int, d_out: int, n_kraus: int, seed=0) -> chan.KrausChannel:
    """Seeded Haar-random channel: slices of an isometry C^d_in → C^(d_out·K)."""
    if n_kraus < 1:
        raise ValueError("need at least one Kraus operator")
    v = haar_isometry(d_out * n_kraus, d_in, rng_from(seed))
    ops = tuple(v[k * d_out : (k + 1) * d_out, :] for k in range(n_kraus))
    return chan.KrausChannel(d_in=d_in, d_out=d_out, kraus=ops)


def near_depolarizing(
    d: int,
    epsilon: float,
    seed=0,
    return_info: bool = False,
):
    """Channel whose outputs all sit within ``epsilon`` of I/d.

    Mixes the completely depolarizing channel with a seeded random channel,
    M = (1−δ)·depolarizing + δ·R, with δ = 0.5·ε / max_probe, where
    max_probe is the largest max-entry deviation ‖R(ψ) − I/d‖ observed on
    1000 seeded Haar-random pure inputs.  The 0.5 margin keeps fresh
    (unprobed) inputs under ε as well.  ε = 0 (or a δ underflow)
    returns the exact depolarizing channel, flagged in the info dict.
    """
    _check_dim(d, 2)
    if epsilon < 0:
        raise ValueError("epsilon must be >= 0")
    rng = rng_from(seed, 0)  # probe stream; the reference channel uses (seed, 1)
    ref = random_channel(d, d, d * d, seed=(seed, 1))
    uniform = np.eye(d) / d

    probes = np.array([random_pure_state(d, rng) for _ in range(1000)])
    outs = chan.apply(ref, la._outer(probes))
    max_dev = float(np.abs(outs - uniform).max())

    delta = 0.0 if max_dev == 0.0 else 0.5 * epsilon / max_dev
    delta = min(delta, 1.0)
    exact = epsilon == 0.0 or delta < 1e-300
    if exact:
        result = depolarizing(d)
        delta = 0.0
    else:
        result = _choi_mixture(depolarizing(d), ref, delta)
    if return_info:
        return result, {
            "delta": float(delta),
            "probe_max_deviation": float(max_dev),
            "exact_depolarizing": bool(exact),
        }
    return result


# ---------------------------------------------------------------------------
# The family registry, and ChannelSpec: JSON round-trippable descriptions.
# ---------------------------------------------------------------------------

def _real(v) -> float:
    if isinstance(v, bool) or not isinstance(v, numbers.Real):
        raise ValueError(f"expected a number, got {v!r}")
    if not math.isfinite(v):
        raise ValueError(f"expected a finite number, got {v!r}")
    return float(v)


def _int(v) -> int:
    if not _real(v).is_integer():
        raise ValueError(f"expected an integer, got {v!r}")
    return int(v)


def _pair(v) -> list[float]:
    if not isinstance(v, (list, tuple)) or len(v) != 2:
        raise ValueError(f"expected a pair of numbers, got {v!r}")
    return [_real(a) for a in v]


def _nested(v):
    """A matrix or a matrix list; its builder checks the shape."""
    if not isinstance(v, (list, tuple)):
        raise ValueError(f"expected a JSON list, got {v!r}")
    return v


def _cycles(v) -> list[list[int]]:
    """A list of cycles, each a list of integers; the builder checks that
    they are (d−1)-cycles, one per window."""
    if not isinstance(v, (list, tuple)) or not all(isinstance(c, (list, tuple)) for c in v):
        raise ValueError(f"expected a list of lists of integers, got {v!r}")
    return [[_int(s) for s in c] for c in v]


@dataclass(frozen=True)
class Param:
    """One family parameter: ``kind`` coerces a JSON value (raising
    ``ValueError``), ``flag`` is the argparse dest of the CLI option that
    supplies it, and the parameter is unused when one of ``unused_with`` is
    given: a spec that gives both is refused, and the CLI leaves it out."""

    name: str
    kind: Callable
    required: bool = False
    flag: str | None = None
    unused_with: tuple[str, ...] = ()


@dataclass(frozen=True)
class Family:
    """A catalogue entry: builder keyword arguments are the parameter names."""

    build: Callable[..., chan.KrausChannel]
    params: tuple[Param, ...] = ()


def _shift_from_spec(d, unitaries=None, cycles=None, seed=0):
    if unitaries is not None:
        mats = [la.matrix_from_json(m) for m in unitaries]
    elif cycles is not None:
        mats = cycle_window_unitaries(d, [tuple(c) for c in cycles])
    else:
        rng = rng_from(seed)
        mats = [haar_unitary(d - 1, rng) for _ in range(d)]
    return shift_subunitary(d, mats)


def _qubit_from_spec(alpha, seed=0, d_out=None, u=None, v=None, w=None):
    u, v, w = (None if m is None else la.matrix_from_json(m) for m in (u, v, w))
    if v is None:
        if w is not None:
            raise ValueError("qubit_generalized_extreme parameter 'w' needs 'v'")
        rng = rng_from(seed)
        v, w = (haar_unitary(2 if d_out is None else d_out, rng)[:, :2] for _ in range(2))
    ch = qubit_generalized_extreme(alpha, u=u, v=v, w=w)
    if d_out not in (None, ch.d_out):
        raise ValueError(f"qubit_generalized_extreme d_out = {d_out}, but v has {ch.d_out} rows")
    return ch


def _near_depolarizing_from_spec(d, epsilon, seed=0, x=0.0):
    return mix_with_identity(near_depolarizing(d, epsilon, seed=seed), x)


_D = Param("d", _int, required=True, flag="dim")
_SEED = Param("seed", _int, flag="seed")

#: The channel catalogue, in catalogue order.
FAMILIES: dict[str, Family] = {
    "identity": Family(identity_channel, (_D,)),
    "depolarizing": Family(depolarizing, (_D,)),
    "werner_holevo": Family(werner_holevo, (_D,)),
    "depolarized_wh": Family(
        depolarized_wh, (_D, Param("x", _real, required=True, flag="x"))
    ),
    "fss_psi": Family(fss_psi),
    "shift_subunitary": Family(
        _shift_from_spec,
        (
            _D,
            Param("unitaries", _nested, flag="unitaries_file"),
            Param("cycles", _cycles, unused_with=("unitaries",)),
            replace(_SEED, unused_with=("unitaries", "cycles")),
        ),
    ),
    "qubit_generalized_extreme": Family(
        _qubit_from_spec,
        (
            Param("alpha", _pair, required=True, flag="alpha"),
            replace(_SEED, unused_with=("v",)),
            Param("d_out", _int, flag="dim"),
            *(Param(name, _nested) for name in ("u", "v", "w")),
        ),
    ),
    "near_depolarizing": Family(
        _near_depolarizing_from_spec,
        (
            _D,
            Param("epsilon", _real, required=True, flag="epsilon"),
            _SEED,
            Param("x", _real, flag="x"),
        ),
    ),
}


class ChannelSpec:
    """A schema-checked (family, params) pair that builds its channel and serializes."""

    def __init__(self, family: str, /, **params):
        if not isinstance(family, str) or family not in FAMILIES:
            raise ValueError(
                f"unknown family {family!r}; known: {', '.join(FAMILIES)}"
            )
        schema = {prm.name: prm for prm in FAMILIES[family].params}
        for k, prm in schema.items():
            if prm.required and k not in params:
                raise ValueError(f"{family} is missing parameter {k!r}")
            for other in prm.unused_with:
                if k in params and other in params:
                    raise ValueError(f"{family} parameter {k!r} is unused with {other!r}")
        self.family = family
        self.params = {}
        for k, v in params.items():
            if k not in schema:
                known = ", ".join(schema) or "none"
                raise ValueError(f"{family} has no parameter {k!r}; known: {known}")
            try:
                self.params[k] = schema[k].kind(v)
            except ValueError as exc:
                raise ValueError(f"{family} parameter {k!r}: {exc}") from None

    def build(self) -> chan.KrausChannel:
        return FAMILIES[self.family].build(**self.params)

    def to_json(self) -> dict:
        return {"family": self.family, "params": self.params}

    @classmethod
    def from_json(cls, data: dict) -> "ChannelSpec":
        if not isinstance(data, dict) or "family" not in data:
            raise ValueError("channel spec JSON needs a 'family' key")
        params = data.get("params", {})
        if not isinstance(params, dict):
            raise ValueError("channel spec 'params' must be a JSON object")
        return cls(data["family"], **params)


def _check_dim(d: int, minimum: int):
    if not isinstance(d, (int, np.integer)) or d < minimum:
        raise ValueError(f"dimension must be an integer >= {minimum}, got {d!r}")
