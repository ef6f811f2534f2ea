"""Tests for the trace-power fixed-point iteration, the multistart driver,
and the multiplicativity checks."""

import dataclasses
import functools
import gc
import hashlib
import math
import types
import weakref

import numpy as np
import pytest
from mpmath import mp

from cptwb import channels as chan
from cptwb import entropy
from cptwb import linalg as la
from cptwb import optimize as opt
from cptwb import zoo
from cptwb._rng import random_pure_state, rng_from

FAST = opt.OptimizerConfig(restarts=10, max_iters=300, seed=0, tensor_restarts=16)
WH3 = zoo.werner_holevo(3)


# ---------------------------------------------------------------------------
# single steps
# ---------------------------------------------------------------------------

def test_output_trace_power_closed_form():
    # Werner-Holevo at d = 3 sends every pure state to spectrum (1/2, 1/2, 0)
    phi = zoo.werner_holevo(3)
    rng = np.random.default_rng(50)
    psi = random_pure_state(3, rng)
    for p in (0.5, 2.0, 5.0):
        assert abs(opt.output_trace_power(phi, psi, p) - 2.0 ** (1 - p)) < 1e-12


def test_output_trace_power_is_the_reported_objective():
    # a bit flip with probability eps sends |0> to diag(1 - eps, eps): below
    # the support cutoff, eps^p still weighs 7.9e-11 in Tr Gamma^p at
    # p = 1.01, and |0> is a fixed point of the iteration
    eps = 1e-10
    x = np.array([[0.0, 1.0], [1.0, 0.0]])
    ch = chan.KrausChannel.from_kraus([math.sqrt(1.0 - eps) * np.eye(2), math.sqrt(eps) * x])
    e0 = np.array([1.0, 0.0])
    rep = opt.estimate_nu_p(ch, 1.01, seeds=[e0])
    assert np.array_equal(rep.best_input, e0)
    exact = (1.0 - eps) ** 1.01 + eps**1.01
    assert abs(rep.best_trace_power - exact) <= 1e-15
    assert opt.output_trace_power(ch, e0, 1.01) == rep.best_trace_power
    # p < 1 takes powers on the support only
    assert abs(opt.output_trace_power(ch, e0, 0.5) - (1.0 - eps) ** 0.5) <= 1e-15
    with pytest.raises(la.ShapeError):
        opt.output_trace_power(ch, np.ones(3), 2.0)
    with pytest.raises(ValueError, match="finite state"):
        opt.output_trace_power(ch, np.array([np.nan, 1.0]), 2.0)
    with pytest.raises(ValueError, match="finite order"):
        opt.output_trace_power(ch, e0, math.inf)
    # the orders the search rejects, p <= 0, are rejected here too; p = 1 is
    # Tr Gamma, not the Tr Gamma log Gamma the search climbs there
    for p in (0.0, -1.0):
        with pytest.raises(ValueError, match="finite order p > 0"):
            opt.output_trace_power(ch, e0, p)
    assert abs(opt.output_trace_power(ch, e0, 1.0) - 1.0) <= 1e-15


def test_p_below_one_keeps_the_support_cutoff():
    # Tr Gamma^p at p < 1 drops the eigenvalues below the rank cutoff; taking
    # them in gives 1.83731 here
    rep = opt.estimate_nu_p(zoo.random_channel(4, 4, 2, seed=1), 0.05)
    assert abs(rep.best_trace_power - 1.818219879271175) <= 1e-12


def _one_step(ch, psi, p):
    """The state after one guarded step of the search from ``psi``."""
    return opt._iterate(ch, psi, p, 1).state[0]


def test_one_step_is_monotone_both_directions():
    # Tr Phi(rho)^p never moves against the iteration direction
    rng = np.random.default_rng(51)
    for trial in range(25):
        d_in = int(rng.integers(2, 5))
        d_out = int(rng.integers(2, 5))
        k_min = -(-d_in // d_out)  # trace preservation needs k * d_out >= d_in
        k = int(rng.integers(k_min, 5))
        phi = zoo.random_channel(d_in, d_out, k, seed=300 + trial)
        psi = random_pure_state(d_in, rng)
        for p in (0.5, 1.01, 1.5, 3.0, 5.0):
            before = opt.output_trace_power(phi, psi, p)
            after_state = _one_step(phi, psi, p)
            after = opt.output_trace_power(phi, after_state, p)
            assert abs(np.linalg.norm(after_state) - 1.0) < 1e-10
            if p > 1:
                assert after >= before - 1e-12
            else:
                assert after <= before + 1e-12


def test_seeded_run_identity_channel_reaches_one():
    psi0 = np.ones(3) / np.sqrt(3)
    run = opt.estimate_nu_p(zoo.identity_channel(3), 4.0, seeds=[psi0])
    assert run.converged == (True,)
    assert abs(run.best_value - 1.0) < 1e-12  # nu_p of a unitary channel is 1
    assert run.monotonicity_violations == 0


# ---------------------------------------------------------------------------
# multistart driver
# ---------------------------------------------------------------------------

def test_optimizer_config_fields_are_locked():
    names = [f.name for f in dataclasses.fields(opt.OptimizerConfig)]
    assert names == ["restarts", "max_iters", "value_tol", "seed", "tensor_restarts"]


def _structured_seeds(d, restarts):
    """The structured prefix of the seed queue of ``restarts`` seeds."""
    queue, n_structured = opt._seed_queue(d, 0, restarts)
    return queue[:n_structured]


def test_multistart_seeds_structure():
    seeds = _structured_seeds(4, 40)
    # d = 2^2: the maximally entangled seed comes first
    beta = np.zeros(4, dtype=complex)
    beta[0] = beta[3] = 1 / np.sqrt(2)
    assert np.abs(seeds[0] - beta).max() < 1e-12
    # then the computational basis
    for j in range(4):
        e = np.zeros(4)
        e[j] = 1.0
        assert np.abs(seeds[1 + j] - e).max() < 1e-12
    # then the 12 coherent pairs; all seeds are unit vectors
    assert len(seeds) == 1 + 4 + 12
    for s in seeds:
        assert abs(np.linalg.norm(s) - 1.0) < 1e-12


def test_multistart_seeds_truncates_to_restarts():
    assert len(_structured_seeds(5, 3)) == 3


def test_multistart_seeds_no_entangled_for_non_square_dim():
    seeds = _structured_seeds(3, 40)
    e0 = np.zeros(3)
    e0[0] = 1.0
    assert np.abs(seeds[0] - e0).max() < 1e-12


#: sha256 of the bytes of the structured seeds for d_in = d
STRUCTURED_SEED_DIGESTS = {
    3: "44aec0d567de6e78088df0d4cc0302f147c4ff4771ec334d5efa171a94ea669b",
    4: "5f51b6adb08f498812baad478a2a996e8b1d52cba7246a52ad468d2ad58d56bb",
    9: "08903c6d07477cdc373393c8311c23f60c1fa14b0a6780f3c0c039a21c560b8b",
}


@pytest.mark.parametrize("d", sorted(STRUCTURED_SEED_DIGESTS))
def test_structured_seed_bytes_are_pinned(d):
    # each channel's memo of seed spectra is keyed by the queue's bytes, so
    # the structured seeds must keep every bit, signed zeros included: the
    # pair (e_0 - i e_1)/sqrt(2) carries -0.0 as the real part of entry 1
    seeds = _structured_seeds(d, 200)
    assert hashlib.sha256(seeds.tobytes()).hexdigest() == STRUCTURED_SEED_DIGESTS[d]
    minus = seeds[len(seeds) - d * (d - 1) + 1]  # the second of the d(d - 1) pairs
    assert minus[1].imag < 0.0 and np.signbit(minus[1].real)


def test_estimate_nu_p_rejects_bad_orders(monkeypatch):
    phi = zoo.depolarizing(2)

    def no_eigh(*args, **kwargs):
        raise AssertionError("eigensolve reached")

    # 1e-320 is finite, but its 1/p is not: the norm's root would read inf
    monkeypatch.setattr(np.linalg, "eigh", no_eigh)
    for p in (0.0, 1.0, -3.0, 1e-320):
        with pytest.raises(ValueError):
            opt.estimate_nu_p(phi, p, FAST)


def test_estimate_nu_p_wh_closed_form():
    # every pure input of WH(3) is optimal: nu_p = 2^{(1-p)/p}
    phi = zoo.werner_holevo(3)
    for p in (2.0, 3.0, 5.0):
        rep = opt.estimate_nu_p(phi, p, FAST)
        assert rep.direction == "max"
        assert abs(rep.best_value - 2.0 ** ((1 - p) / p)) < 1e-10
        assert rep.converged
    rep = opt.estimate_nu_p(phi, 0.5, FAST)
    assert rep.direction == "min"
    assert abs(rep.best_value - 2.0) < 1e-10  # (Tr rho^{1/2})^{1/0.5...}


def test_estimate_nu_p_deterministic_and_tiebreak():
    phi = zoo.random_channel(3, 3, 3, seed=17)
    a = opt.estimate_nu_p(phi, 3.0, FAST)
    b = opt.estimate_nu_p(phi, 3.0, FAST)
    assert a.best_value == b.best_value
    assert a.best_restart == b.best_restart
    assert np.array_equal(a.best_input, b.best_input)
    assert np.array_equal(a.restart_values, b.restart_values)
    # identity channel: every restart ties at 1, lowest index wins
    rep = opt.estimate_nu_p(zoo.identity_channel(3), 2.0, FAST)
    assert rep.best_restart == 0


def _assert_same_fields(x, y, cls):
    for field in dataclasses.fields(cls):
        u, v = getattr(x, field.name), getattr(y, field.name)
        if isinstance(u, np.ndarray):
            assert np.array_equal(u, v), field.name
        else:
            assert u == v, field.name


def test_seed_queue_is_cached_read_only_and_reproducible():
    phi = zoo.random_channel(3, 3, 3, seed=17)
    opt._seed_queue.cache_clear()
    first = opt.estimate_nu_p(phi, 3.0, FAST)
    queue, n_structured = opt._seed_queue(3, FAST.seed, FAST.restarts)
    snapshot = queue.copy()
    second = opt.estimate_nu_p(phi, 3.0, FAST)
    opt.estimate_nu_p(phi, 0.5, FAST)
    assert opt._seed_queue.cache_info().misses == 1
    _assert_same_fields(first, second, opt.OptimizerReport)
    assert not queue.flags.writeable
    with pytest.raises(ValueError):
        queue[0, 0] = 0.0
    assert np.array_equal(queue, snapshot)  # the kernel worked on copies
    assert n_structured == first.n_structured_seeds
    for i in range(FAST.restarts):
        assert np.array_equal(queue[i], _seed_state(3, FAST, i))


def test_estimate_nu_p_runs_exactly_the_given_seeds():
    phi = zoo.random_channel(3, 3, 3, seed=17)
    full = opt.estimate_nu_p(phi, 3.0, FAST)
    picked = (7, 4)
    seeds = [_seed_state(3, FAST, i) for i in picked]
    rep = opt.estimate_nu_p(phi, 3.0, FAST, seeds=seeds)
    assert rep.n_structured_seeds == 0
    assert len(rep.restart_values) == len(picked)
    for j, i in enumerate(picked):
        assert rep.restart_values[j] == full.restart_values[i]
        assert np.array_equal(rep.restart_states[j], full.restart_states[i])
        assert rep.iterations[j] == full.iterations[i]
    with pytest.raises(ValueError, match="seed"):
        opt.estimate_nu_p(phi, 3.0, FAST, seeds=[])
    with pytest.raises(la.ShapeError):
        opt.estimate_nu_p(phi, 3.0, FAST, seeds=[np.array([1.0, 0.0])])


def _seed_state(d, cfg, i):
    seeds = _structured_seeds(d, cfg.restarts)
    return seeds[i] if i < len(seeds) else random_pure_state(d, rng_from(cfg.seed, i))


def test_restart_results_depend_only_on_their_index():
    # restarts share one stack that shrinks as runs converge; restart i must
    # not notice how many others ran beside it
    phi = zoo.random_channel(3, 4, 3, seed=21)
    for p in (0.5, 3.0):
        small = opt.estimate_nu_p(phi, p, dataclasses.replace(FAST, restarts=12))
        large = opt.estimate_nu_p(phi, p, dataclasses.replace(FAST, restarts=19))
        assert len(set(large.iterations)) > 1  # the stack did shrink unevenly
        for i in range(12):
            assert np.array_equal(small.restart_states[i], large.restart_states[i])
            assert small.restart_values[i] == large.restart_values[i]
            assert small.iterations[i] == large.iterations[i]
            assert small.converged[i] == large.converged[i]


def test_restart_results_depend_only_on_their_index_above_the_transfer_limit():
    # d_in * d_out = 270: M = adj(Gamma^(p-1)) comes from the Kraus loop
    phi = zoo.random_channel(9, 30, 4, seed=21)
    assert phi.d_in * phi.d_out > chan.TRANSFER_DIM_MAX
    cfg = dataclasses.replace(FAST, max_iters=60)
    for p in (0.5, 5.0):
        small = opt.estimate_nu_p(phi, p, dataclasses.replace(cfg, restarts=12))
        large = opt.estimate_nu_p(phi, p, dataclasses.replace(cfg, restarts=19))
        assert len(set(large.iterations)) > 1
        for i in range(12):
            assert np.array_equal(small.restart_states[i], large.restart_states[i])
            assert small.restart_values[i] == large.restart_values[i]
            assert small.iterations[i] == large.iterations[i]
            assert small.converged[i] == large.converged[i]


def test_one_step_makes_three_eigensolves(monkeypatch):
    # p < 1: one for the initial output, then two per step: M(psi) and the
    # candidate's output.  p > 1: the power candidate needs no eigensolve of
    # M, so a step decomposes only the candidate's output.
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(a.shape) or eigh(a))
    phi = zoo.random_channel(3, 4, 3, seed=27)
    psi = random_pure_state(3, np.random.default_rng(28))
    _one_step(phi, psi, 0.5)
    assert len(calls) == 3
    calls.clear()
    _one_step(phi, psi, 3.0)
    # outputs only (d_out = 4): the candidate's, since psi's own comes from
    # the spectra phi kept from the p = 0.5 step
    assert calls == [(1, 4, 4)]


def test_each_step_applies_the_adjoint_once_to_the_stack(monkeypatch):
    # the loop must reach M = adj(Gamma^(p-1)) through the channel layer:
    # one apply_adjoint call per stacked pass.  At p < 1 the M eigensolve
    # then decomposes that stack.  At p > 1 a pass first tests the rows whose
    # power candidate gains at most VALUE_TOL; those at a fixed point leave
    # before any output is decomposed, and the others take the exact step.
    # Then it decomposes the candidates' outputs, the plain candidates'
    # outputs of the rows whose extrapolated candidate the guard rejected,
    # and M only for rows taking the exact step
    events = []  # ("adjoint" | "extrapolate" | "m" | "out", rows) and
    # ("test", rows tested, rows at a fixed point), in call order
    apply_adjoint, eigh = chan.apply_adjoint, np.linalg.eigh
    at_fixed_point, extrapolate = opt._at_fixed_point, opt._extrapolate
    refuse = 0  # fixed points left to refuse, the first ones found

    def counted_eigh(a):
        # d_in = 3, outputs are 4 x 4
        events.append(("m" if a.shape[-1] == 3 else "out", len(a)))
        return eigh(a)

    def counted_adjoint(ch, x):
        events.append(("adjoint", len(x)))
        return apply_adjoint(ch, x)

    def counted_extrapolate(x, *args):
        events.append(("extrapolate", len(x)))
        return extrapolate(x, *args)

    def counted_at_fixed_point(m, *args):
        nonlocal refuse
        there = at_fixed_point(m, *args)
        refused = np.flatnonzero(there)[:refuse]
        there[refused] = False
        refuse -= len(refused)
        events.append(("test", len(m), int(there.sum())))
        return there

    monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
    monkeypatch.setattr(chan, "apply_adjoint", counted_adjoint)
    monkeypatch.setattr(opt, "_extrapolate", counted_extrapolate)
    monkeypatch.setattr(opt, "_at_fixed_point", counted_at_fixed_point)

    def run(p):
        events.clear()
        # a new channel each time: one that has run from the seed queue keeps
        # its initial outputs' spectra
        rep = opt.estimate_nu_p(zoo.random_channel(3, 4, 3, seed=27), p, FAST)
        assert all(rep.converged)
        assert events[0] == ("out", FAST.restarts)
        steps = []
        for event in events[1:]:
            if event[0] == "adjoint":
                steps.append([event[1]])
            else:
                steps[-1].append(event)
        assert len(steps) == max(rep.iterations) > 1
        assert steps[0][0] == FAST.restarts
        # each pass: the adjoint on the live stack, the test of the screened
        # rows, the extrapolated rows, M of the rows sent to the exact step,
        # the outputs of the rows left, then those of the retried rows: the
        # plain candidates of rejected extrapolations, then the exact step of
        # rejected plain candidates
        retried = exact = 0
        for n, *rest in steps:
            assert n > 0
            sent = n if p < 1.0 else 0  # every p < 1 step is exact
            if rest and rest[0][0] == "test":
                (_, tested, fixed), *rest = rest
                assert 1 <= tested <= n
                n -= fixed
                sent = tested - fixed
            if n == 0:  # the last pass of its runs: no output decomposed
                assert rest == []
                continue
            e = 0
            if rest[0][0] == "extrapolate":
                (_, e), *rest = rest
                assert 1 <= e <= n
            if sent:
                assert rest[0] == ("m", sent)
                rest = rest[1:]
                exact += sent
            assert rest[0] == ("out", n)
            rest = rest[1:]
            if e and rest and rest[0][0] == "out":
                (_, k), *rest = rest
                assert 1 <= k <= e
                retried += k
            if rest:
                (_, k), (kind, k2) = rest
                assert rest[0][0] == "m" and kind == "out" and k == k2 >= 1
                exact += k
        assert retried == rep.extrapolations_rejected
        return rep, exact

    rep, _ = run(0.5)
    assert rep.extrapolations_rejected == 0
    assert all(event[0] in ("adjoint", "m", "out") for event in events)
    assert [n for kind, n in events if kind == "adjoint"] == [
        n for kind, n in events if kind == "m"
    ]
    rep, exact = run(3.0)
    assert rep.extrapolations_rejected > 0  # the retry stacks were checked
    assert exact < FAST.restarts
    # every run ends at the fixed-point test
    assert sum(event[2] for event in events if event[0] == "test") == FAST.restarts
    # as many fixed points as restarts are refused: each refused row takes
    # the exact step in the same pass, the only step that decomposes M
    refuse = FAST.restarts
    rep, more = run(3.0)
    assert refuse == 0 and more >= FAST.restarts


def test_infinite_order_is_rejected():
    phi = zoo.werner_holevo(3)
    with pytest.raises(ValueError, match="finite"):
        opt.estimate_nu_p(phi, math.inf, FAST)


@pytest.mark.parametrize("state", [np.zeros(3), np.array([np.nan, 1.0, 0.0])])
def test_zero_or_non_finite_state_is_rejected_before_eigensolves(state, monkeypatch):
    def no_eigh(a):
        raise AssertionError("eigh reached")

    monkeypatch.setattr(np.linalg, "eigh", no_eigh)
    with pytest.raises(ValueError, match="state 0 has norm") as exc:
        opt.estimate_nu_p(WH3, 3.0, seeds=[state])
    assert not isinstance(exc.value, np.linalg.LinAlgError)


@pytest.mark.parametrize("max_iters", [0, -5])
def test_max_iters_below_one_is_rejected_before_eigensolves(max_iters, monkeypatch):
    def no_eigh(a):
        raise AssertionError("eigh reached")

    monkeypatch.setattr(np.linalg, "eigh", no_eigh)
    with pytest.raises(ValueError, match="max_iters"):
        opt.estimate_nu_p(WH3, 5.0, dataclasses.replace(FAST, max_iters=max_iters))


@pytest.mark.parametrize(
    "field, value",
    [
        ("restarts", 0), ("restarts", -3), ("restarts", 2.0), ("restarts", True),
        ("max_iters", 0), ("max_iters", False),
        ("tensor_restarts", 0), ("tensor_restarts", 1.5), ("tensor_restarts", True),
        ("seed", -1), ("seed", 0.5), ("seed", True), ("seed", None),
    ],
)
def test_a_setting_out_of_range_is_refused_when_the_config_is_built(field, value, monkeypatch):
    # refused before any eigensolve, also where a certificate would decide
    # the row and where no Haar seed would be drawn
    def no_eigh(a):
        raise AssertionError("eigh reached")

    monkeypatch.setattr(np.linalg, "eigh", no_eigh)
    beta = np.eye(3).ravel() / math.sqrt(3.0)
    least = 0 if field == "seed" else 1
    with pytest.raises(ValueError, match=f"^{field} must be an integer >= {least}, got"):
        opt.mult_check(WH3, WH3, 5.0, opt.OptimizerConfig(**{field: value}), certificates=(beta,))


def test_each_restart_matches_a_single_run_from_its_seed():
    # restart i of the queue is the run from seed i, alone or among others
    for phi, p in (
        (zoo.random_channel(3, 3, 3, seed=22), 3.0),
        (zoo.random_channel(3, 3, 2, seed=0), 0.5),  # singular outputs
    ):
        rep = opt.estimate_nu_p(phi, p, FAST)
        fallbacks = rejected = 0
        for i in range(FAST.restarts):
            run = opt.estimate_nu_p(phi, p, FAST, seeds=[_seed_state(3, FAST, i)])
            fallbacks += run.guard_fallbacks
            rejected += run.extrapolations_rejected
            assert run.iterations == (rep.iterations[i],)
            assert run.converged == (rep.converged[i],)
            assert run.restart_values[0] == rep.restart_values[i]
            assert np.array_equal(run.restart_states[0], rep.restart_states[i])
        assert fallbacks == rep.guard_fallbacks
        assert rejected == rep.extrapolations_rejected


def test_guard_fallbacks_recorded_for_singular_outputs_below_one():
    # two Kraus operators on d = 3: every output is singular, and at p < 1
    # the kernel-escaping candidates are refused rather than accepted
    phi = zoo.random_channel(3, 3, 2, seed=0)
    rep = opt.estimate_nu_p(phi, 0.5, FAST)
    assert rep.guard_fallbacks == FAST.restarts
    assert rep.monotonicity_violations == 0
    assert all(rep.converged)
    seed = _seed_state(3, FAST, 1)  # rejected on its first step
    run = opt.estimate_nu_p(phi, 0.5, FAST, seeds=[seed])
    assert run.guard_fallbacks == 1
    assert run.iterations == (1,)
    # the stall keeps the state: the best input is the normalized seed
    assert np.array_equal(run.best_input, seed / np.linalg.norm(seed))


def test_extrapolation_is_exact_on_a_geometric_residual():
    # x_prev = z + a*e, f_prev = x = z + rho*a*e, f = z + rho^2*a*e: the
    # residual shrinks by rho per step, and the secant step lands on z
    rng = np.random.default_rng(60)
    z = random_pure_state(4, rng)
    e = random_pure_state(4, rng)
    e -= np.vdot(z, e) * z
    a, rho = 0.3 - 0.2j, 0.09
    x_prev, x, f = (z + c * a * e for c in (1.0, rho, rho * rho))
    y = opt._extrapolate(x[None], f[None], x_prev[None], x[None])[0]
    assert np.abs(y - z).max() < 1e-14
    # a vanishing residual difference leaves the plain candidate
    y = opt._extrapolate(x[None], f[None], x[None], f[None])[0]
    assert np.array_equal(y, f / np.linalg.norm(f))


def test_only_rows_whose_power_residual_contracted_extrapolate(monkeypatch):
    # a row takes the extrapolated candidate only when ||f - x|| fell below
    # ||f_prev - x_prev||; any other row takes the plain one in that pass
    extrapolate = opt._extrapolate
    rows = 0

    def gated(x, f, x_prev, f_prev):
        nonlocal rows
        rows += len(x)
        grown = np.linalg.norm(f - x, axis=-1) >= np.linalg.norm(f_prev - x_prev, axis=-1)
        assert not grown.any()
        return extrapolate(x, f, x_prev, f_prev)

    monkeypatch.setattr(opt, "_extrapolate", gated)
    for ch in (zoo.random_channel(3, 3, 2, seed=700), zoo.random_channel(4, 3, 3, seed=22)):
        for p in (1.01, 1.5, 5.0):
            opt.estimate_nu_p(ch, p, FAST)
    assert rows > 0


def _exact_step_gap(ch, psi, p):
    """p·(λ_max(M) − ⟨ψ|M|ψ⟩) for M = adj(Φ(ψψ†)^(p−1)), built as the search
    builds it at p > 1: plain powers of the clamped output spectrum.

    The spectrum is the search's own: near p = 1 a roundoff eigenvalue of
    ~1e-17 still weighs ~0.67, so an output assembled in another order moves
    the gap at the 1e-12 level.
    """
    w, v, _, _ = opt._output_spectra(np.stack(ch.kraus), psi[None], p)
    m = chan.apply_adjoint(ch, la._from_spectrum(w[0] ** (p - 1.0), v[0]))
    return p * (np.linalg.eigvalsh(m)[-1] - np.vdot(psi, m @ psi).real)


# channels with two Kraus operators whose restarts at p = 1.01 ended on guard
# rejections while M was built from Gamma^(p-1) cut to its numerical support:
# near p = 1 the cutoff drops weight that the monotonicity argument counts
REJECTING_AT_1_01 = (
    zoo.random_channel(2, 2, 2, seed=12),
    zoo.random_channel(4, 4, 2, seed=18),
    zoo.random_channel(4, 3, 2, seed=15),
)


def _certificate_cases():
    for d_in in (2, 3, 4):
        for d_out in (2, 3, 4):
            k = max(2, -(-d_in // d_out))
            ch = zoo.random_channel(d_in, d_out, k, seed=40 + 3 * d_in + d_out)
            for p in (1.5, 5.0):
                yield ch, p, FAST
    nd = zoo.near_depolarizing(3, 0.1)
    for p in (1.01, 1.5, 5.0):
        yield nd, p, FAST
    yield chan.tensor(WH3, WH3), 5.0, opt.OptimizerConfig(restarts=20)
    for ch in REJECTING_AT_1_01:
        yield ch, 1.01, opt.OptimizerConfig(restarts=25)
    unital = chan.adjoint(zoo.random_channel(2, 4, 2, seed=3))  # not trace-preserving
    ops = unital.kraus_stack
    assert 0.0 < np.linalg.eigvalsh(np.einsum("kij,kil->jl", ops.conj(), ops))[0] < 0.9
    for p in (1.5, 3.0):
        yield unital, p, FAST


def test_converged_restarts_above_one_end_at_a_fixed_point():
    # a converged run at p > 1 ends where the exact step would stall: the
    # state it stopped at is M's top eigenvector within the stall rule, and
    # no candidate is rejected on the way
    tol = opt.VALUE_TOL
    for ch, p, cfg in _certificate_cases():
        queue, _ = opt._seed_queue(ch.d_in, cfg.seed, cfg.restarts)
        runs = opt._iterate(ch, queue, p, cfg.max_iters)
        assert runs.violations.sum() == runs.fallbacks.sum() == 0, (ch.d_in, p)
        for psi in runs.state[runs.status != "max_iters"]:
            gap = _exact_step_gap(ch, psi, p)
            assert gap <= tol, (ch.d_in, p, gap)


def _stationarity_gap(ch, psi, p):
    """p·(λ_max(M) − ⟨ψ|M|ψ⟩) with M = Σ_k A_k† Γ^(p−1) A_k, Γ = Σ_k A_k ψψ† A_k†,
    built operator by operator, without ``_output_spectra`` or
    ``apply_adjoint``."""
    psi = psi / np.linalg.norm(psi)
    gamma = sum(np.outer(a @ psi, (a @ psi).conj()) for a in ch.kraus)
    w, v = np.linalg.eigh((gamma + gamma.conj().T) / 2.0)
    power = (v * np.maximum(w, 0.0) ** (p - 1.0)) @ v.conj().T
    m = sum(a.conj().T @ power @ a for a in ch.kraus)
    m = (m + m.conj().T) / 2.0
    return p * (np.linalg.eigvalsh(m)[-1] - np.vdot(psi, m @ psi).real)


def _amplitude_damping(gamma):
    return chan.KrausChannel.from_kraus(
        [np.diag([1.0, math.sqrt(1.0 - gamma)]), math.sqrt(gamma) * np.array([[0.0, 1.0], [0.0, 0.0]])]
    )


def _stationarity_cases():
    yield chan.tensor(WH3, WH3), 4.5, opt._seed_queue(9, 0, 200)[0]
    for d_in, d_out, k, seed in ((3, 3, 2, 5), (3, 4, 3, 1), (4, 4, 2, 0)):
        ch = zoo.random_channel(d_in, d_out, k, seed=seed)
        for p in (1.5, 3.0, 5.0):
            yield ch, p, opt._seed_queue(d_in, 0, 50)[0]
    # M(e_1) is diagonal with e_0 above e_1, p·(λ(e_0) − λ(e_1)) = 1.1e-7 to
    # 3.0e-7: the power step cannot move e_1, which only the fixed-point test
    # sends to the exact step
    for p in (1.5, 3.0, 5.0):
        yield _amplitude_damping(0.5 + 1e-7), p, np.array([[0.0, 1.0]])


def test_converged_restarts_are_stationary_for_an_independent_m():
    # every converged p > 1 run reports a state where p·(λ_max(M) − ⟨ψ|M|ψ⟩)
    # is at most VALUE_TOL, up to the roundoff of an M built another way
    # (9.98e-13 at most here).  p = 1.01 is left out: there a roundoff
    # eigenvalue of Γ still weighs ~0.7 in Γ^(p−1), and the M built here
    # gives up to 2.5e-12 on these channels
    cfg = opt.OptimizerConfig(max_iters=500)
    for ch, p, states in _stationarity_cases():
        rep = opt.estimate_nu_p(ch, p, cfg, seeds=states)
        assert set(rep.statuses) == {"converged"}, (ch.d_in, p)
        gaps = [_stationarity_gap(ch, psi, p) for psi in rep.restart_states]
        assert max(gaps) <= 2.0 * opt.VALUE_TOL, (ch.d_in, p, max(gaps))


def test_a_pass_from_a_reported_state_below_one_gains_nothing():
    # a p < 1 run that did not hit max_iters ends where one more pass cannot
    # lower Tr Γ^p by more than VALUE_TOL: its last step moved the objective
    # by at most that, or the guard kept its state.  1.5e-14 at most here;
    # a stop test loosened to 1e6·VALUE_TOL leaves drops up to 6.3e-7, all on
    # random_channel(3, 2, 3, seed=2) at p = 0.9
    tol = opt.VALUE_TOL
    for d_in, d_out, k, seed in ((4, 4, 3, 0), (3, 3, 2, 5), (3, 4, 3, 1), (4, 4, 2, 0),
                                 (2, 3, 2, 1), (3, 2, 3, 2)):
        ch = zoo.random_channel(d_in, d_out, k, seed=seed)
        for p in (0.1, 0.5, 0.9):
            rep = opt.estimate_nu_p(ch, p)
            again = opt.estimate_nu_p(
                ch, p, opt.OptimizerConfig(max_iters=1), seeds=rep.restart_states
            )
            for i, status in enumerate(rep.statuses):
                if status != "max_iters":
                    drop = opt.output_trace_power(ch, rep.restart_states[i], p) - (
                        opt.output_trace_power(ch, again.restart_states[i], p)
                    )
                    assert drop <= tol, (d_in, d_out, seed, p, i, drop)


def test_rejected_runs_at_1_01_converge():
    # with plain powers of the output spectrum M is the gradient of Tr Gamma^p:
    # the guard rejects no step of these channels, and every run converges
    for ch in REJECTING_AT_1_01:
        rep = opt.estimate_nu_p(ch, 1.01, opt.OptimizerConfig(restarts=25))
        assert sum(rep.converged) == 25
        assert rep.guard_fallbacks == 0


def test_entropy_runs_at_one_are_monotone_and_converge():
    # p = 1 climbs Tr Gamma log Gamma = -S on the ladder of p > 1: on a small
    # survey no step moves down, the guard rejects none, every restart
    # converges, and each restart's value is -S of its output
    rng = np.random.default_rng(61)
    for trial in range(12):
        d_in = int(rng.integers(2, 5))
        d_out = int(rng.integers(2, 5))
        k = int(rng.integers(-(-d_in // d_out), 5))
        ch = zoo.random_channel(d_in, d_out, k, seed=700 + trial)
        rep = opt._multistart(ch, 1.0, FAST)
        assert rep.monotonicity_violations == rep.guard_fallbacks == 0, trial
        assert all(rep.converged), trial
        outs = chan.apply(ch, la._outer(rep.restart_states))
        s = np.array([entropy.von_neumann(out) for out in outs])
        assert np.abs(np.array(rep.restart_values) + s).max() <= 1e-12, trial


@pytest.mark.parametrize("p", [1.01, 5.0])
def test_power_step_keeps_the_state_when_m_is_a_multiple_of_the_identity(p):
    # every output of the depolarizing channel is I/d, so M - mu*I vanishes:
    # each run keeps its seed and ends at the fixed-point test of its first pass
    d = 2
    with np.errstate(divide="raise", invalid="raise", over="raise"):
        rep = opt.estimate_nu_p(zoo.depolarizing(d), p, FAST)
    assert rep.iterations == (1,) * FAST.restarts and all(rep.converged)
    assert abs(rep.best_value - d ** ((1.0 - p) / p)) < 1e-12


def test_floored_shift_bounds_m_and_the_power_step_climbs(monkeypatch):
    # mu = max(0, Gershgorin's bound) is below lambda_min(M), since M = Phi-hat(L)
    # with L >= 0 is PSD: on the stacks M of real p >= 1 runs (p = 1 log weights
    # and a map that is not trace-preserving among them), M - mu*I has no
    # eigenvalue below the PSD floor and no power candidate lowers <psi|M|psi>
    calls = []
    real_ascent, real_power = opt._ascent_candidates, opt._power_candidates

    def ascent(m, states):
        calls.append([m])
        return real_ascent(m, states)

    def power(shifted, states):
        cand = real_power(shifted, states)
        calls[-1] += [shifted, states, cand]
        return cand

    monkeypatch.setattr(opt, "_ascent_candidates", ascent)
    monkeypatch.setattr(opt, "_power_candidates", power)
    unital = chan.adjoint(zoo.random_channel(2, 4, 2, seed=3))  # not trace-preserving
    cases = [(unital, 1.5), (unital, 3.0)]
    for seed in (90, 91):
        ch = zoo.random_channel(3, 3, 2, seed=seed)
        cases += [(ch, p) for p in (1.0, 1.01, 5.0)]
    floored = shifted_up = 0
    for ch, p in cases:
        calls.clear()
        opt._multistart(ch, p, FAST)
        assert calls, (ch.d_in, p)
        for m, shifted, states, cand in calls:
            diag = np.arange(m.shape[-1])
            bound = (2.0 * m[:, diag, diag].real - np.abs(m).sum(axis=-1)).min(axis=-1)
            negative = bound < 0.0
            # the floor acts: M is passed on unshifted
            assert np.array_equal(shifted[negative], m[negative])
            floored += int(negative.sum())
            shifted_up += int((~negative).sum())
            top = np.linalg.eigvalsh(m)[:, -1]
            assert (np.linalg.eigvalsh(shifted)[:, 0] >= la._psd_floor(top)).all(), p
            before = np.einsum("ri,rij,rj->r", states.conj(), m, states).real
            after = np.einsum("ri,rij,rj->r", cand.conj(), m, cand).real
            assert (after - before >= -1e-14 * top).all(), p
    assert floored > 0 and shifted_up > 0


def test_seed_spectra_memo_dies_with_its_channel():
    ch = zoo.random_channel(2, 2, 2, seed=5)
    opt.estimate_nu_p(ch, 3.0, FAST)
    memo, alive = opt._SEED_SPECTRA[ch], weakref.ref(ch)
    assert memo
    del ch
    gc.collect()
    # other tests' channels may die in the same collection: look at this one
    assert alive() is None
    assert all(m is not memo for m in opt._SEED_SPECTRA.values())


@pytest.mark.parametrize("epsilon", [1e-3, 1e-5])
@pytest.mark.parametrize("p", [1.01, 3.0])
def test_near_depolarizing_channels_converge_in_few_steps_above_one(epsilon, p, monkeypatch):
    # Phi-hat lifts lambda_min(M) far above lambda_min(Gamma^(p-1)); the
    # Gershgorin bound keeps the shift close to it (18 steps at most here,
    # as with the exact step)
    ch = zoo.near_depolarizing(3, epsilon)
    rep = opt.estimate_nu_p(ch, p, FAST)
    assert all(rep.converged) and max(rep.iterations) <= 30
    # the exact step decomposes M itself: M - mu*I is too small for the
    # relative Hermiticity check.  The first fixed points found are refused,
    # so as many exact steps run, and the runs still end at the same value
    real, refused = opt._at_fixed_point, []

    def refuse_first(m, *args):
        there = real(m, *args)
        for i in np.flatnonzero(there)[: FAST.restarts - len(refused)]:
            there[i] = False
            refused.append(i)
        return there

    monkeypatch.setattr(opt, "_at_fixed_point", refuse_first)
    exact = opt.estimate_nu_p(ch, p, FAST)
    assert len(refused) == FAST.restarts and all(exact.converged)
    assert abs(exact.best_value - rep.best_value) <= 1e-12


def _first_significant(psi):
    mags = np.abs(psi)
    return psi[np.argmax(mags > 1e-12 * mags.max())]


@pytest.mark.parametrize("p", [0.5, 1.01, 3.0])
def test_reported_states_have_canonical_phases(p):
    for ch in (zoo.random_channel(3, 4, 3, seed=27), zoo.near_depolarizing(3, 0.1)):
        rep = opt.estimate_nu_p(ch, p, FAST)
        for psi in (rep.best_input, *rep.restart_states):
            lead = _first_significant(psi)
            assert lead.real > 0.0 and lead.imag == 0.0


def test_mult_check_same_object_matches_an_equal_copy():
    a = zoo.werner_holevo(3)
    copy = chan.KrausChannel.from_kraus([k.copy() for k in a.kraus])
    same = opt.mult_check(a, a, 5.0, FAST)
    other = opt.mult_check(a, copy, 5.0, FAST)
    _assert_same_fields(same, other, opt.MultReport)


# ---------------------------------------------------------------------------
# multiplicativity
# ---------------------------------------------------------------------------

def test_mult_check_wh3_violation_at_p5():
    rep = opt.mult_check(zoo.werner_holevo(3), zoo.werner_holevo(3), 5.0, FAST)
    assert rep.violated
    assert rep.tensor_dim == 9
    # singles: nu_5 = 2^{-4/5} each, so the product is 2^{-8/5}
    assert abs(rep.product_of_singles - 2.0 ** (-8 / 5)) < 1e-9
    # entangled seed certifies (43/10368)^{1/5}
    assert abs(rep.nu_product_lb - (43.0 / 10368.0) ** 0.2) < 1e-9
    assert abs(rep.gap - math.log(rep.nu_product_lb / rep.product_of_singles)) < 1e-12
    # the shipped certificate reproduces the bound
    ww = chan.tensor(zoo.werner_holevo(3), zoo.werner_holevo(3))
    tp = opt.output_trace_power(ww, rep.certificate, 5.0)
    assert abs(tp ** 0.2 - rep.nu_product_lb) < 1e-12


def test_mult_check_no_violation_at_p2():
    rep = opt.mult_check(zoo.werner_holevo(3), zoo.werner_holevo(3), 2.0, FAST)
    assert not rep.violated
    assert abs(rep.gap) < 1e-9


def test_mult_check_defaults_b_to_a_dimensions():
    rep = opt.mult_check(zoo.werner_holevo(3), zoo.identity_channel(3), 3.0, FAST)
    assert rep.tensor_dim == 9
    # nu_p multiplies for a product with a unitary channel
    assert not rep.violated


def test_mult_check_enforces_tensor_dim_cap(monkeypatch):
    wh17 = zoo.werner_holevo(17)  # WH17 ⊗ WH17 has input dimension 289
    assert wh17.d_in**2 > opt.TENSOR_DIM_MAX

    def no_eigh(a):
        raise AssertionError("eigh reached")

    monkeypatch.setattr(np.linalg, "eigh", no_eigh)
    with pytest.raises(ValueError, match="TENSOR_DIM_MAX"):
        opt.mult_check(wh17, wh17, 5.0, FAST)


def _wh3_onset():
    """The order above which β beats every product input of WH3⊗WH3, to 50
    digits.  (W⊗W)(ββ†) has spectrum {1/3, 1/12 (8 times)} and a product
    input gives at most (1/2, 1/2, 0)⊗(1/2, 1/2, 0), so β wins exactly when
    3^{−p} + 8·12^{−p} > 4^{1−p}."""
    with mp.workdps(50):
        return mp.findroot(lambda p: 3**-p + 8 * 12**-p - 4 ** (1 - p), 4.78)


P_STAR = float(_wh3_onset())


def test_mult_scan_finds_wh3_threshold_coarsely():
    cfg = opt.OptimizerConfig(restarts=8, max_iters=300, seed=0, tensor_restarts=12)
    scan = opt.mult_scan(
        zoo.werner_holevo(3), zoo.werner_holevo(3), (4.5, 5.0), cfg, resolution=0.1
    )
    assert scan.threshold is not None
    lo, hi = scan.bracket
    assert lo <= scan.threshold <= hi
    assert hi - lo <= 0.1 + 1e-12
    assert 4.6 < scan.threshold < 4.9
    ps = [row.p for row in scan.rows]
    assert ps == sorted(ps)


@pytest.mark.parametrize("resolution", [0.0, -0.01, float("nan"), float("inf")])
def test_mult_scan_rejects_bad_resolution_before_any_check(resolution, monkeypatch):
    def no_check(*args):
        raise AssertionError("mult_check reached")

    monkeypatch.setattr(opt, "mult_check", no_check)
    phi = zoo.werner_holevo(3)
    with pytest.raises(ValueError, match="resolution"):
        opt.mult_scan(phi, phi, [4.5, 5.0], resolution=resolution)


def _no_gap_root(monkeypatch):
    """Make the gap curve's root search find none, so a scan bisects."""
    monkeypatch.setattr(opt, "_illinois", lambda *args: None)


def test_mult_scan_bisection_stops_at_float_spacing(monkeypatch):
    # below the float spacing of the bracket, a midpoint is one of its ends
    calls = []

    def check(a, b, p, config=None, certificates=(), tensor=None, haar=None):
        calls.append(p)
        if len(calls) > 200:
            raise AssertionError("bisection does not stop")
        return types.SimpleNamespace(
            violated=p > 4.79, certificate=np.full(9, p, dtype=complex),
            search_states=np.empty((0, 9), dtype=complex),
        )

    monkeypatch.setattr(opt, "mult_check", check)
    _no_gap_root(monkeypatch)
    phi = zoo.werner_holevo(3)
    scan = opt.mult_scan(phi, phi, [4.5, 5.0], resolution=1e-300)
    lo, hi = scan.bracket
    assert np.nextafter(lo, hi) == hi
    assert len(calls) < 2 + 64
    # the gap curve has no root, so the onset is bisected
    assert (scan.placed_by, scan.gap_evaluations) == ("bisection", 0)
    # a grid bracket within the resolution is the bracket
    calls.clear()
    scan = opt.mult_scan(phi, phi, [4.785, 4.79, 4.795])
    assert calls == [4.785, 4.79, 4.795]
    assert scan.bracket == (4.79, 4.795)
    assert (scan.placed_by, scan.gap_evaluations) == ("grid", 0)


@pytest.mark.parametrize(
    "grid",
    [[4.5, float("inf")], [float("nan"), 5.0], [0.0, 5.0], [-2.0, 5.0], [0.5, 1.0],
     [4.5, 1e-320]],
)
def test_mult_scan_rejects_bad_grid_points_before_any_check(grid, monkeypatch):
    def no_check(*args, **kwargs):
        raise AssertionError("mult_check reached")

    monkeypatch.setattr(opt, "mult_check", no_check)
    with pytest.raises(ValueError, match="grid points"):
        opt.mult_scan(WH3, WH3, grid)


def _verdicts_flip_at(onset, calls):
    """A mult_check double: the real check, recorded in ``calls``, with
    violated = p > onset."""
    real = opt.mult_check

    def check(a, b, p, config=None, certificates=(), tensor=None, haar=None):
        calls.append(p)
        r = real(a, b, p, config, certificates, tensor=tensor, haar=haar)
        return dataclasses.replace(r, violated=p > onset)

    return check


def test_mult_scan_takes_no_onset_across_p_1(monkeypatch):
    # the verdict's direction flips at p = 1, so (0.5, 1.5) brackets nothing,
    # and nothing is checked at p = 1
    calls = []
    monkeypatch.setattr(opt, "mult_check", _verdicts_flip_at(0.9, calls))
    scan = opt.mult_scan(WH3, WH3, (0.5, 1.5), FAST)
    assert calls == [0.5, 1.5]
    assert scan.bracket is scan.threshold is scan.placed_by is None
    assert scan.gap_evaluations == 0


@pytest.mark.parametrize("onset", [4.7, 4.79])
def test_a_disagreeing_confirmation_falls_back_to_bisection(onset, monkeypatch):
    # the double's verdicts flip at `onset`, away from the root of the real
    # gap curve (4.7823): at 4.7 the check below the root is violated, at
    # 4.79 the one above it is not
    calls = []
    monkeypatch.setattr(opt, "mult_check", _verdicts_flip_at(onset, calls))
    scan = opt.mult_scan(WH3, WH3, (4.5, 5.0), FAST, resolution=0.01)
    assert abs(calls[2] - (P_STAR - 0.005)) < 1e-4  # the lower confirmation
    assert scan.placed_by == "bisection" and scan.gap_evaluations >= 3
    lo, hi = scan.bracket
    assert lo < onset < hi and hi - lo <= 0.01
    # the bracket is a pair of neighbouring rows, not violated then violated
    ps = [r.p for r in scan.rows]
    i = ps.index(lo)
    assert ps[i + 1] == hi
    assert not scan.rows[i].violated and scan.rows[i + 1].violated
    assert len(set(calls)) == len(calls) == len(scan.rows)


def test_mult_scan_without_violation_has_no_threshold():
    scan = opt.mult_scan(
        zoo.identity_channel(2), zoo.identity_channel(2), (1.5, 2.5), FAST
    )
    assert scan.threshold is None
    assert scan.bracket is None
    assert all(not row.violated for row in scan.rows)


# ---------------------------------------------------------------------------
# certificates carried along a scan
# ---------------------------------------------------------------------------

def _scan_without_certificates(cfg, monkeypatch):
    real = opt.mult_check

    def fresh(a, b, p, config=None, certificates=(), tensor=None, haar=None):
        return real(a, b, p, config, haar=haar)

    with monkeypatch.context() as m:
        m.setattr(opt, "mult_check", fresh)
        return opt.mult_scan(WH3, WH3, (4.5, 5.0), cfg, resolution=0.01)


@pytest.mark.parametrize("seed", [0, 7919])
def test_scan_with_certificates_matches_scan_without(seed, monkeypatch):
    cfg = opt.OptimizerConfig(seed=seed)
    carried = _default_wh3_scan(seed)[0]
    fresh = _scan_without_certificates(cfg, monkeypatch)
    # each fresh row is a plain mult_check at its p; the fresh scan still
    # follows the gap curve of the certificates its rows return, so both
    # scans check the same orders
    assert [r.p for r in carried.rows] == [r.p for r in fresh.rows]
    assert [r.violated for r in carried.rows] == [r.violated for r in fresh.rows]
    assert carried.threshold == fresh.threshold
    assert carried.bracket == fresh.bracket
    assert abs(carried.threshold - 4.79) <= 0.02
    assert all(r.decided_by == "search" for r in fresh.rows)
    # the grid's ends, then the checks below and above the gap curve's root
    assert carried.placed_by == fresh.placed_by == "gap_root"
    assert [r.decided_by for r in carried.rows] == ["search", "search", "certificate", "search"]
    assert all(r.monotonicity_violations == 0 for r in carried.rows)
    _assert_same_fields(carried.rows[-1], fresh.rows[-1], opt.MultReport)  # p = 5
    ww = chan.tensor(WH3, WH3)
    for r in carried.rows:
        if r.decided_by == "certificate":
            assert r.violated
            direct = opt.output_trace_power(ww, r.certificate, r.p) ** (1.0 / r.p)
            assert abs(r.nu_product_lb - direct) <= 1e-13 * direct


def test_stale_certificate_falls_through_to_the_search():
    cert = opt.mult_check(WH3, WH3, 5.0, FAST).certificate
    rep = opt.mult_check(WH3, WH3, 4.75, FAST, certificates=[cert])
    assert rep.decided_by == "search"
    assert not rep.violated
    # the search beats the polished state, so the row is the plain check
    _assert_same_fields(rep, opt.mult_check(WH3, WH3, 4.75, FAST), opt.MultReport)


def test_better_polished_certificate_replaces_a_weaker_search():
    # one tensor restart: the search runs only from the maximally entangled
    # seed, which at p = 3 stays below the product of the singles
    cfg = dataclasses.replace(FAST, tensor_restarts=1)
    single = opt.estimate_nu_p(WH3, 3.0, cfg)
    cert = np.kron(single.best_input, single.best_input)
    plain = opt.mult_check(WH3, WH3, 3.0, cfg)
    assert plain.nu_product_lb < plain.product_of_singles * (1.0 - 1e-3)
    rep = opt.mult_check(WH3, WH3, 3.0, cfg, certificates=[cert])
    assert rep.decided_by == "search" and not rep.violated
    assert abs(rep.nu_product_lb - rep.product_of_singles) <= 1e-12
    polished = opt.estimate_nu_p(chan.tensor(WH3, WH3), 3.0, cfg, seeds=[cert])
    assert np.array_equal(rep.certificate, polished.best_input)
    # every product state is optimal for WH3: with the full budget the
    # search reaches the product too, and the tie keeps the search's row
    other = np.kron(np.eye(3)[1], np.eye(3)[2]).astype(complex)
    tie = opt.mult_check(WH3, WH3, 3.0, FAST, certificates=[other])
    _assert_same_fields(tie, opt.mult_check(WH3, WH3, 3.0, FAST), opt.MultReport)
    assert not np.array_equal(tie.certificate, other)


def test_certificate_polishing_goes_through_estimate_nu_p(monkeypatch):
    cert = opt.mult_check(WH3, WH3, 5.0, FAST).certificate
    real_estimate, real_iterate = opt.estimate_nu_p, opt._iterate
    calls, depth = [], [0]

    def estimate(ch, p, config=None, **kwargs):
        calls.append(kwargs.get("seeds"))
        depth[0] += 1
        try:
            rep = real_estimate(ch, p, config, **kwargs)
        finally:
            depth[0] -= 1
        return dataclasses.replace(rep, monotonicity_violations=1)

    def iterate(*args):
        assert depth[0] == 1, "fixed-point work outside estimate_nu_p"
        return real_iterate(*args)

    monkeypatch.setattr(opt, "estimate_nu_p", estimate)
    monkeypatch.setattr(opt, "_iterate", iterate)
    rep = opt.mult_check(WH3, WH3, 4.9, FAST, certificates=[cert])
    assert rep.decided_by == "certificate" and rep.violated
    assert len(calls) == 2  # ν(A), reused for B, and the polish
    assert calls[0] is None and np.array_equal(calls[1], [cert])
    assert rep.monotonicity_violations == 2  # summed over both estimates
    calls.clear()
    rep = opt.mult_check(WH3, WH3, 4.6, FAST, certificates=[cert])
    assert rep.decided_by == "search" and not rep.violated
    assert len(calls) == 3  # ν(A), the polish and the tensor search
    assert rep.monotonicity_violations == 3


def test_mult_check_without_certificates_is_the_plain_search():
    a, b = WH3, zoo.depolarized_wh(3, 0.25)
    for p in (0.5, 5.0):
        rep = opt.mult_check(a, b, p, FAST, certificates=())
        _assert_same_fields(rep, opt.mult_check(a, b, p, FAST), opt.MultReport)
        rep_a, rep_b = opt.estimate_nu_p(a, p, FAST), opt.estimate_nu_p(b, p, FAST)
        tensor_cfg = dataclasses.replace(FAST, restarts=FAST.tensor_restarts)
        rep_ab = opt.estimate_nu_p(chan.tensor(a, b), p, tensor_cfg)
        product = rep_a.best_value * rep_b.best_value
        assert rep.decided_by == "search"
        assert (rep.nu_a, rep.nu_b) == (rep_a.best_value, rep_b.best_value)
        assert rep.nu_product_lb == rep_ab.best_value
        assert rep.product_of_singles == product
        assert rep.gap == math.log(rep_ab.best_value) - math.log(product)
        assert np.array_equal(rep.certificate, rep_ab.best_input)
        assert rep.monotonicity_violations == sum(
            r.monotonicity_violations for r in (rep_a, rep_b, rep_ab)
        )


def test_tensor_restarts_run_counts_the_queue_restarts():
    cert = opt.mult_check(WH3, WH3, 5.0, FAST).certificate
    decided = opt.mult_check(WH3, WH3, 4.9, FAST, certificates=[cert])
    assert decided.decided_by == "certificate" and decided.tensor_restarts_run == 0
    stale = opt.mult_check(WH3, WH3, 4.75, FAST, certificates=[cert])
    assert stale.decided_by == "search"
    assert stale.tensor_restarts_run == FAST.tensor_restarts


# ---------------------------------------------------------------------------
# what does not depend on p is computed once per scan
# ---------------------------------------------------------------------------

def _bits(x):
    """A report's fields, nested, with arrays as bytes and floats as hex."""
    if dataclasses.is_dataclass(x):
        return tuple((f.name, _bits(getattr(x, f.name))) for f in dataclasses.fields(x))
    if isinstance(x, np.ndarray):
        return x.dtype.str, x.shape, x.tobytes()
    if isinstance(x, (tuple, list)):
        return tuple(_bits(y) for y in x)
    if isinstance(x, dict):
        return tuple(sorted((k, _bits(v)) for k, v in x.items()))
    return float.hex(x) if isinstance(x, float) else x


@functools.lru_cache(maxsize=None)
def _default_wh3_scan(seed):
    """A default-config WH3 scan over [4.5, 5] from a new channel, and each
    stack of outputs it decomposed as (Kraus bytes, states bytes, rows)."""
    stacks = []
    real = opt._output_spectra

    def counted(kraus, states, p):
        stacks.append((kraus.tobytes(), states.tobytes(), len(states)))
        return real(kraus, states, p)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(opt, "_output_spectra", counted)
        wh3 = zoo.werner_holevo(3)
        scan = opt.mult_scan(wh3, wh3, (4.5, 5.0), opt.OptimizerConfig(seed=seed))
    return scan, stacks


def test_a_scan_decomposes_each_seed_stack_once():
    scan, stacks = _default_wh3_scan(0)
    assert len(scan.rows) == 4
    # without the memo each row and each evaluation of the gap curve
    # decomposes the initial outputs of its seeds again, 2 931 outputs in all
    assert sum(n for *_, n in stacks) <= 2343
    keys = [(kraus, states) for kraus, states, _ in stacks]
    assert len(set(keys)) == len(keys)


def _eigensolves(fn):
    """fn() and the stack shapes it passed to ``eigh`` and ``eigvalsh``."""
    counts = {"eigh": [], "eigvalsh": []}
    with pytest.MonkeyPatch.context() as mp_:
        for name in counts:
            real = getattr(np.linalg, name)

            def counted(a, real=real, name=name):
                counts[name].append(a.shape[:-2])
                return real(a)

            mp_.setattr(np.linalg, name, counted)
        out = fn()
    return out, counts


def test_a_warm_scan_repeats_its_eigensolves_exactly():
    # after a warm-up scan the memo holds every seed stack; each p >= 1 run
    # ends at the fixed-point test, before its last candidate is decomposed
    # (3 149 eigh matrices before that, 2 293 after, at seed 0), only rows
    # whose power residual contracted extrapolate (2 077: fewer rejected
    # extrapolations decompose a second output), and the gap root's lower
    # check continues from the p = 4.5 row's end states (1 533)
    wh3 = zoo.werner_holevo(3)

    def scan():
        return opt.mult_scan(wh3, wh3, (4.5, 5.0), opt.OptimizerConfig(seed=0))

    scan()
    first, counts = _eigensolves(scan)
    again, counts_again = _eigensolves(scan)
    assert counts == counts_again
    matrices = {name: sum(map(math.prod, shapes)) for name, shapes in counts.items()}
    assert matrices["eigh"] <= 1533 and matrices["eigvalsh"] <= 839
    assert _bits(first.rows) == _bits(again.rows)


@pytest.mark.parametrize("p", [1.5, 5.0])
def test_fixed_point_seeds_end_without_an_eigh(p):
    # every pure state is optimal for WH3 and a fixed point of its M: with the
    # seed memo warm, the 50 runs of an estimate are one eigvalsh stack and
    # no eigh, and each ends converged on its first pass
    wh3 = zoo.werner_holevo(3)
    opt.estimate_nu_p(wh3, 3.0)
    rep, counts = _eigensolves(lambda: opt.estimate_nu_p(wh3, p))
    assert counts == {"eigh": [], "eigvalsh": [(50,)]}
    assert rep.statuses == ("converged",) * 50 and rep.iterations == (1,) * 50
    assert abs(rep.best_value - 2.0 ** ((1.0 - p) / p)) < 1e-12


def test_a_lower_eigenvector_of_its_m_takes_the_exact_step_at_once(monkeypatch):
    # a classical stochastic channel maps e_j to diag(P[:, j]), so every M at
    # a basis state is diagonal and the power step keeps e_0.  Its column
    # (0.5, 0.3, 0.2) is no fixed point at p = 3: e_1, whose output is pure,
    # tops M(e_0), so the first pass takes the exact step to e_1 and the
    # second ends there, at the maximum Tr Gamma^p = 1
    P = np.array([[0.5, 1.0, 0.0], [0.3, 0.0, 0.5], [0.2, 0.0, 0.5]])
    ch = chan.KrausChannel.from_kraus(
        [math.sqrt(P[i, j]) * np.outer(np.eye(3)[i], np.eye(3)[j])
         for i in range(3) for j in range(3) if P[i, j] > 0.0]
    )
    seed = np.eye(3, dtype=complex)[0]
    w, v, _, _ = opt._output_spectra(ch.kraus_stack, seed[None], 3.0)
    m = chan.apply_adjoint(ch, la._from_spectrum(opt._terms(w, 3.0, weights=True), v))
    assert np.count_nonzero(m[0] - np.diag(np.diag(m[0]))) == 0
    assert not opt._at_fixed_point(m, seed[None], 3.0)[0]
    exact, real = [], opt._exact_candidates
    monkeypatch.setattr(
        opt, "_exact_candidates", lambda m, p: exact.append(len(m)) or real(m, p)
    )
    run = opt._iterate(ch, seed, 3.0, 10)
    assert exact == [1]
    assert run.iterations.tolist() == [2] and run.status.tolist() == ["converged"]
    assert np.allclose(np.abs(run.state[0]), np.eye(3)[1], atol=0.0)
    assert run.value[0] == 1.0


def test_a_row_rejected_on_every_rung_above_p_1_keeps_its_seed(monkeypatch):
    # by convexity a plain candidate past the fixed-point screen gains, so no
    # real run at p > 1 reaches the bottom of the ladder from the plain rung.
    # Here every candidate's output reads 1 lower in Tr Gamma^p, so the guard
    # rejects each one.  On the stochastic channel above, e_1 is a fixed point
    # and ends at once; e_0 fails the fixed-point test and starts on the exact
    # rung; two Haar states start plain and fall to the exact rung.  Each of
    # the three keeps its seed and ends as guard_stall after one pass
    P = np.array([[0.5, 1.0, 0.0], [0.3, 0.0, 0.5], [0.2, 0.0, 0.5]])
    ch = chan.KrausChannel.from_kraus(
        [math.sqrt(P[i, j]) * np.outer(np.eye(3)[i], np.eye(3)[j])
         for i in range(3) for j in range(3) if P[i, j] > 0.0]
    )
    p = 3.0
    haar = [random_pure_state(3, rng_from(0, i)) for i in (0, 1)]
    seeds = np.array([*np.eye(3, dtype=complex)[:2], *haar])
    psi = seeds / np.linalg.norm(seeds, axis=1)[:, None]  # as the search normalizes
    real = opt._output_spectra
    w, v, t, _ = real(ch.kraus_stack, psi, p)
    ms = chan.apply_adjoint(ch, la._from_spectrum(opt._terms(w, p, weights=True), v))
    seen, exact = [], opt._exact_candidates

    def lowered(kraus, states, p):
        w, v, t, tr = real(kraus, states, p)
        return w, v, t - 1.0, tr

    def recorded(m, p):
        seen.append([next(j for j, mj in enumerate(ms) if np.array_equal(x, mj)) for x in m])
        return exact(m, p)

    # the seeds' own outputs are decomposed as they are
    monkeypatch.setattr(opt, "_seed_spectra", lambda c, states, p: real(c.kraus_stack, states, p))
    monkeypatch.setattr(opt, "_output_spectra", lowered)
    monkeypatch.setattr(opt, "_exact_candidates", recorded)
    run = opt._iterate(ch, seeds, p, 10)
    # the first pass builds e_0's exact step, then that of the rows whose
    # plain candidate the guard rejected
    assert seen == [[0], [2, 3]]
    assert run.status.tolist() == ["guard_stall", "converged", "guard_stall", "guard_stall"]
    assert run.iterations.tolist() == [1] * 4
    assert run.fallbacks.tolist() == [1, 0, 2, 2]  # each rejected rung
    assert run.rejected.tolist() == [0] * 4
    assert np.array_equal(run.state, psi)
    assert np.array_equal(run.value, t)


def test_a_kept_step_that_the_recheck_finds_against_the_direction_is_counted(monkeypatch):
    # the guard and the re-check can round one boundary value differently:
    # every seed output here reads Tr Γ^p = 1 and every candidate's
    # fl(1 + 1e-12) = 1 + 1.00009e-12.  At p < 1 the guard keeps that step,
    # since fl(−1 − 1e-12) equals its negation, and the re-check finds it
    # 1.00009e-12 up, more than VALUE_TOL: one violation.  The next step
    # moves nothing, and the run converges
    real = opt._output_spectra

    def reading(t):
        def spectra(kraus, states, p):
            w, v, _, tr = real(kraus, states, p)
            return w, v, np.full(len(states), t), tr
        return spectra

    monkeypatch.setattr(opt, "_seed_spectra", lambda ch, s, p: reading(1.0)(ch.kraus_stack, s, p))
    monkeypatch.setattr(opt, "_output_spectra", reading(1.0 + 1e-12))
    rep = opt.estimate_nu_p(WH3, 0.5, FAST, seeds=np.eye(3)[:1])
    assert rep.monotonicity_violations == 1
    assert rep.statuses == ("converged",) and rep.iterations == (2,)


@pytest.mark.parametrize("p", [3.0, 0.5])
def test_a_seed_with_a_zero_trace_output_is_refused(p):
    # a map that is not trace-preserving can send a state to zero: here the
    # basis seed e_1
    ch = chan.KrausChannel.from_kraus([np.diag([1.0, 0.0])])
    with pytest.raises(ValueError, match="zero trace"):
        opt.estimate_nu_p(ch, p)


def test_the_guard_keeps_a_p_below_1_run_out_of_the_kernel():
    # no seed has a zero output, but the least eigenvector of M lies in the
    # kernel, spanned by e_0 - e_1, where Tr Γ^p = 0 looks cheapest: the
    # guard turns that exact step down, and every run stalls on its seed
    ch = chan.KrausChannel.from_kraus([np.array([[1.0, 1.0], [0.0, 0.0]]) / np.sqrt(2)])
    rep = opt.estimate_nu_p(ch, 0.5)
    assert set(rep.statuses) == {"guard_stall"}
    assert rep.best_value > 0.0
    assert rep.monotonicity_violations == 0


@pytest.mark.parametrize("seed", [0, 7919])
def test_default_wh3_scan_brackets_the_closed_form_onset(seed):
    with mp.workdps(50):
        assert mp.nstr(_wh3_onset(), 18) == "4.78231124020691732"
    scan = _default_wh3_scan(seed)[0]
    lo, hi = scan.bracket
    assert lo < P_STAR < hi
    assert hi - lo <= 0.01
    assert scan.placed_by == "gap_root"
    cfg = opt.OptimizerConfig(seed=seed)
    for row in scan.rows:
        assert row.violated == opt.mult_check(WH3, WH3, row.p, cfg).violated, row.p
        assert row.monotonicity_violations == 0


@pytest.mark.parametrize("seed", [0, 7919])
def test_scan_rows_do_not_depend_on_the_memo(seed, monkeypatch):
    real = opt.mult_check

    def on_copies(a, b, p, config=None, certificates=(), tensor=None, haar=None):
        # new channels, so new tensor channels too: every memo starts empty
        assert a is b
        c = chan.KrausChannel.from_kraus(a.kraus)
        assert c not in opt._SEED_SPECTRA
        return real(c, c, p, config, certificates, haar=haar)

    monkeypatch.setattr(opt, "mult_check", on_copies)
    wh3 = zoo.werner_holevo(3)
    defeated = opt.mult_scan(wh3, wh3, (4.5, 5.0), opt.OptimizerConfig(seed=seed))
    scan = _default_wh3_scan(seed)[0]
    assert [r.p for r in scan.rows] == [r.p for r in defeated.rows]
    for row, other in zip(scan.rows, defeated.rows):
        assert _bits(row) == _bits(other), row.p
    assert _bits(scan) == _bits(defeated)


def test_seed_spectra_memo_is_bounded_and_read_only():
    phi = zoo.random_channel(3, 3, 2, seed=4)
    cfg = dataclasses.replace(FAST, restarts=12, max_iters=20)  # 3 Haar seeds
    for seed in range(20):
        opt.estimate_nu_p(phi, 3.0, dataclasses.replace(cfg, seed=seed))
    memo = opt._SEED_SPECTRA[phi]
    assert len(memo) == opt._SEED_SPECTRA_MAX
    # keyed by the normalized states' bytes: the eight used last, oldest first
    queues = [opt._seed_queue(3, seed, 12)[0] for seed in range(12, 20)]
    keys = [(q / np.linalg.norm(q, axis=1)[:, None]).tobytes() for q in queues]
    assert list(memo) == keys
    for w, v, tr in memo.values():
        assert not (w.flags.writeable or v.flags.writeable or tr.flags.writeable)


def test_restart_and_search_states_are_one_stack_each():
    # restart_states is the (r, d_in) array of end states, best_input one of
    # its rows; search_states is the view of its rows after the structured
    # seeds, with none when the Haar part did not run
    phi = zoo.random_channel(3, 3, 2, seed=8)
    rep = opt.estimate_nu_p(phi, 3.0, FAST)
    assert isinstance(rep.restart_states, np.ndarray)
    assert rep.restart_states.shape == (FAST.restarts, 3)
    assert rep.best_input.base is rep.restart_states.base is not None
    assert np.array_equal(rep.best_input, rep.restart_states[rep.best_restart])
    # at p = 5 the structured seeds of WH3⊗WH3 decide, and with the p = 5
    # certificate polished first no search runs at all
    cfg = opt.OptimizerConfig(restarts=10, tensor_restarts=100)
    stopped = opt.mult_check(WH3, WH3, 5.0, cfg)
    certified = opt.mult_check(WH3, WH3, 5.0, cfg, certificates=(stopped.certificate,))
    assert (stopped.decided_by, stopped.tensor_restarts_run) == ("search", 82)
    assert (certified.decided_by, certified.tensor_restarts_run) == ("certificate", 0)
    for rep in (stopped, certified):
        assert isinstance(rep.search_states, np.ndarray)
        assert (rep.search_states.shape, rep.search_states.dtype) == ((0, 9), np.complex128)
    full = opt.mult_check(WH3, WH3, 4.5, cfg)
    assert full.search_states.shape == (100 - 82, 9)


def test_a_tensor_search_never_builds_the_products_transfer_matrix():
    # Φ̂ of A⊗B goes factor by factor, through the transfer matrices of A and B
    ww = chan.tensor(WH3, WH3)
    cfg = opt.OptimizerConfig(restarts=10, tensor_restarts=100)
    rep = opt.mult_check(WH3, WH3, 5.0, cfg, tensor=ww)
    assert rep.violated and rep.tensor_restarts_run > 0
    assert ww.factors == (WH3, WH3) and "transfer" not in ww.__dict__


def test_direct_mult_check_does_not_depend_on_the_memo():
    a = zoo.werner_holevo(3)
    first = opt.mult_check(a, a, 4.9, FAST)  # fills a's memo
    again = opt.mult_check(a, a, 4.9, FAST)
    ww = chan.tensor(a, a)
    opt.mult_check(a, a, 5.0, FAST, tensor=ww)  # fills the memo of ww
    shared = opt.mult_check(a, a, 4.9, FAST, tensor=ww)
    assert opt._SEED_SPECTRA[a] and opt._SEED_SPECTRA[ww]
    assert _bits(first) == _bits(again) == _bits(shared)
    with pytest.raises(la.ShapeError):
        opt.mult_check(a, a, 4.9, FAST, tensor=a)


def test_mult_scan_checks_each_distinct_order_once_on_one_tensor(monkeypatch):
    calls = []

    def check(a, b, p, config=None, certificates=(), tensor=None, haar=None):
        calls.append((p, tensor))
        return types.SimpleNamespace(
            p=p, violated=False, certificate=np.full(9, p, dtype=complex),
            search_states=np.empty((0, 9), dtype=complex),
        )

    monkeypatch.setattr(opt, "mult_check", check)
    scan = opt.mult_scan(WH3, WH3, [2.0, 2.0, 2.5, 2.0])
    assert [p for p, _ in calls] == [r.p for r in scan.rows] == [2.0, 2.5]
    tensor = calls[0][1]
    assert tensor.d_in == 9 and all(t is tensor for _, t in calls)


def test_each_restart_reports_how_it_ended():
    # at p = 0.5 every restart on this channel ends on a guard rejection,
    # which counts as convergence
    stalls = opt.estimate_nu_p(zoo.random_channel(4, 4, 3, seed=0), 0.5, FAST)
    assert stalls.statuses == ("guard_stall",) * FAST.restarts
    assert all(stalls.converged)
    phi = zoo.random_channel(3, 4, 3, seed=1)
    done = opt.estimate_nu_p(phi, 3.0, FAST)
    assert done.statuses == ("converged",) * FAST.restarts
    cut = opt.estimate_nu_p(phi, 3.0, dataclasses.replace(FAST, max_iters=3))
    assert cut.statuses == ("max_iters",) * FAST.restarts
    assert not any(cut.converged)


# ---------------------------------------------------------------------------
# a violation needs converged single estimates
# ---------------------------------------------------------------------------

# two steps are too few for the single estimates of this channel to converge
UNCONVERGED = opt.OptimizerConfig(restarts=6, tensor_restarts=1, max_iters=2)


def test_certificate_cannot_decide_against_unconverged_singles():
    a = zoo.random_channel(2, 2, 2, seed=0)
    single = opt.estimate_nu_p(a, 3.0, UNCONVERGED)
    assert not all(single.converged)
    # a product state cannot violate multiplicativity; polished two steps
    # further than the singles, it still beats their product
    cert = np.kron(single.best_input, single.best_input)
    rep = opt.mult_check(a, a, 3.0, UNCONVERGED, certificates=[cert])
    assert rep.nu_product_lb > rep.product_of_singles * (1.0 + opt.VIOLATION_MARGIN)
    assert not rep.singles_converged
    assert not rep.violated
    assert rep.decided_by == "search"


def test_search_cannot_decide_against_unconverged_singles():
    # one step, with no extrapolation: the singles stay unconverged while the
    # tensor search already beats their product by the margin
    a = zoo.random_channel(2, 2, 2, seed=3)
    cfg = dataclasses.replace(UNCONVERGED, tensor_restarts=40, max_iters=1)
    rep = opt.mult_check(a, a, 3.0, cfg)
    assert rep.nu_product_lb > rep.product_of_singles * (1.0 + opt.VIOLATION_MARGIN)
    assert not rep.singles_converged
    assert not rep.violated
    assert rep.tensor_restarts_run == 40  # no early stop either


# ---------------------------------------------------------------------------
# the tensor search stops at its structured seeds when they certify
# ---------------------------------------------------------------------------

WW = chan.tensor(WH3, WH3)
FULL = opt.OptimizerConfig(restarts=200)  # 82 structured seeds, then Haar


def test_extrapolated_steps_shorten_the_wh3_tensor_search():
    # plain power steps took 1 523 steps over these 200 restarts; the
    # extrapolated ones must save a fifth of them, converge every restart,
    # and keep the best value and the restart that reaches it first
    rep = opt.estimate_nu_p(WW, 4.75, FULL)
    assert sum(rep.iterations) <= 0.8 * 1523
    assert all(rep.converged)
    assert rep.monotonicity_violations == rep.guard_fallbacks == 0
    assert 0 < rep.extrapolations_rejected < sum(rep.iterations)
    assert rep.best_restart == 1
    assert abs(rep.best_value - 0.3347260253061179) <= 1e-15


def test_the_residual_gate_cuts_rejections_on_the_wh3_haar_stack():
    # the Haar stack of the default p = 4.5 tensor search turned down 94
    # extrapolations when every row with a history extrapolated, 78 of them
    # on rows whose power residual had grown; under the gate it turns down 18
    queue, n_structured = opt._seed_queue(WW.d_in, FULL.seed, FULL.restarts)
    rep = opt.estimate_nu_p(WW, 4.5, FULL, seeds=queue[n_structured:])
    assert len(rep.iterations) == 118
    assert all(rep.converged)
    assert rep.monotonicity_violations == rep.guard_fallbacks == 0
    assert 0 < rep.extrapolations_rejected <= 20


@pytest.mark.parametrize("p", [0.5, 4.75])
def test_staged_search_below_the_bound_is_the_one_stack_search(p):
    plain = opt.estimate_nu_p(WW, p, FULL)
    assert 0 < plain.n_structured_seeds < FULL.restarts  # both stages run
    never = math.inf if p > 1.0 else 0.0
    staged = opt.estimate_nu_p(WW, p, FULL, bound=never)
    _assert_same_fields(staged, plain, opt.OptimizerReport)


@pytest.mark.parametrize("p", [0.5, 5.0])
def test_staged_search_stops_when_the_structured_best_is_beyond_the_bound(p):
    plain = opt.estimate_nu_p(WW, p, FULL)
    n = plain.n_structured_seeds
    structured = plain.restart_values[:n]
    if p > 1.0:
        bound = max(structured) * (1.0 - 1e-9)
    else:
        bound = min(structured) * (1.0 + 1e-9)
    staged = opt.estimate_nu_p(WW, p, FULL, bound=bound)
    assert len(staged.restart_values) == n
    # the same report as a queue of the structured seeds alone
    alone = opt.estimate_nu_p(WW, p, dataclasses.replace(FULL, restarts=n))
    assert staged.config == plain.config
    _assert_same_fields(
        dataclasses.replace(staged, config=alone.config), alone, opt.OptimizerReport
    )


def _one_stack(monkeypatch):
    """Make mult_check's estimates ignore ``bound``: one stack per search."""
    real = opt.estimate_nu_p

    def estimate(ch, p, config=None, *, seeds=None, bound=None, haar=None):
        return real(ch, p, config, seeds=seeds, haar=haar)

    monkeypatch.setattr(opt, "estimate_nu_p", estimate)


def _counted_check(monkeypatch, config=None):
    """mult_check(WH3, WH3, 5) and the number of matrices it eigendecomposed."""
    matrices = []
    eigh = np.linalg.eigh

    def counted(a):
        matrices.append(math.prod(a.shape[:-2]))
        return eigh(a)

    with monkeypatch.context() as m:
        m.setattr(np.linalg, "eigh", counted)
        rep = opt.mult_check(WH3, WH3, 5.0, config)
    return rep, sum(matrices)


def test_default_wh3_check_at_p5_stops_after_the_structured_seeds(monkeypatch):
    staged, _ = _counted_check(monkeypatch)
    with monkeypatch.context() as m:
        _one_stack(m)
        one, _ = _counted_check(m)
    assert staged.violated and staged.decided_by == "search"
    assert staged.singles_converged
    assert staged.tensor_restarts_run == 82
    assert one.tensor_restarts_run == opt.OptimizerConfig().tensor_restarts
    # the staged search ran no Haar seed, so it has no Haar end states
    assert staged.search_states.shape == (0, 9) and one.search_states.shape == (200 - 82, 9)
    _assert_same_fields(
        dataclasses.replace(
            staged,
            tensor_restarts_run=one.tensor_restarts_run,
            search_states=one.search_states,
        ),
        one,
        opt.MultReport,
    )


def test_early_stop_saves_eigensolves(monkeypatch):
    # a count, not a time: it repeats exactly, and it is lost with the stop
    _, staged = _counted_check(monkeypatch)
    with monkeypatch.context() as m:
        _one_stack(m)
        _, one = _counted_check(m)
    assert staged < one


def test_all_structured_queue_runs_one_stack(monkeypatch):
    cfg = opt.OptimizerConfig(tensor_restarts=24)
    stacks = []
    real = opt._iterate

    def iterate(ch, states, *args):
        if ch.d_in == 9:
            stacks.append(len(states))
        return real(ch, states, *args)

    monkeypatch.setattr(opt, "_iterate", iterate)
    rep = opt.mult_check(WH3, WH3, 5.0, cfg)
    assert rep.violated
    assert stacks == [24]
    assert rep.tensor_restarts_run == 24


# ---------------------------------------------------------------------------
# tensor searches continued along a scan
# ---------------------------------------------------------------------------

def _recorded_scan(a, b, grid, cfg, monkeypatch, *, drop_haar=False):
    """mult_scan through a mult_check double that records the ``haar`` of
    each check by p, and passes it on unless ``drop_haar``."""
    real, haars = opt.mult_check, {}

    def check(a, b, p, config=None, certificates=(), tensor=None, haar=None):
        haars[p] = haar
        return real(
            a, b, p, config, certificates, tensor=tensor, haar=None if drop_haar else haar
        )

    with monkeypatch.context() as m:
        m.setattr(opt, "mult_check", check)
        return opt.mult_scan(a, b, grid, cfg), haars


def _answers(scan):
    """What a scan decides, with every tensor value by its bits."""
    rows = [(r.p, r.violated, r.decided_by, float.hex(r.nu_product_lb)) for r in scan.rows]
    return rows, scan.threshold, scan.bracket, scan.placed_by


PAIR = (zoo.random_channel(3, 3, 2, seed=5), zoo.random_channel(3, 3, 3, seed=6))


@pytest.mark.parametrize(
    "pair, grid, seed",
    [((WH3, WH3), (4.5, 5.0), 0), ((WH3, WH3), (4.5, 5.0), 7919),
     (PAIR, (1.5, 3.0, 5.0), 0), (PAIR, (0.3, 0.6, 0.9), 0)],
    ids=["wh3-seed0", "wh3-seed7919", "pair-above-1", "pair-below-1"],
)
def test_continuation_keeps_the_scans_answers(pair, grid, seed, monkeypatch):
    cfg = opt.OptimizerConfig(seed=seed)
    scan, haars = _recorded_scan(*pair, grid, cfg, monkeypatch)
    plain, _ = _recorded_scan(*pair, grid, cfg, monkeypatch, drop_haar=True)
    assert _answers(scan) == _answers(plain)
    assert [r.continued_restarts for r in plain.rows] == [0] * len(plain.rows)
    # above 1 every check after the first searched row continues; below 1
    # none does: there a continued search beat single estimates that ended
    # on guard stalls, and gave this grid a violation at p = 0.9
    searched = [r.p for r in scan.rows if len(r.search_states)]
    above = sorted(p for p in haars if p > 1.0)
    assert [p for p in above if haars[p] is not None] == [p for p in above if p != searched[0]]
    assert all(haars[p] is None for p in haars if p < 1.0)
    assert any(r.continued_restarts for r in scan.rows) == bool(above)


def test_continued_rows_carry_end_states_and_count_them(monkeypatch):
    cfg = opt.OptimizerConfig(seed=0)
    passes, real = {}, opt.estimate_nu_p

    def estimate(ch, p, config=None, **kwargs):
        rep = real(ch, p, config, **kwargs)
        if kwargs.get("haar") is not None:
            passes[p] = sum(rep.iterations)
        return rep

    monkeypatch.setattr(opt, "estimate_nu_p", estimate)
    scan, haars = _recorded_scan(WH3, WH3, (4.5, 5.0), cfg, monkeypatch)
    rows = {r.p: r for r in scan.rows}
    first, stopped, lower, upper = (rows[p] for p in haars)  # in the order checked
    assert (first.p, stopped.p) == (4.5, 5.0) and lower.p < upper.p
    assert haars[first.p] is None and first.continued_restarts == first.fresh_restarts == 0
    n_haar = cfg.tensor_restarts - 82
    assert first.search_states.shape == (n_haar, 9)
    # p = 5 stops after its structured seeds and hands nothing on
    assert stopped.tensor_restarts_run == 82 and stopped.search_states.shape == (0, 9)
    assert (stopped.continued_restarts, stopped.fresh_restarts) == (0, 0)
    # the gap root's lower check continues from p = 4.5, the nearest searched
    # row: its end states, less their last 32, whose slots run the queue's
    # own Haar seeds
    assert lower.decided_by == "search" and lower.tensor_restarts_run == cfg.tensor_restarts
    assert (lower.continued_restarts, lower.fresh_restarts) == (n_haar - 32, 32)
    assert haars[lower.p].shape == (n_haar - 32, 9)
    assert np.array_equal(haars[lower.p], first.search_states[: n_haar - 32])
    assert passes[lower.p] <= 450  # 1 089 from the queue's own Haar seeds
    assert upper.decided_by == "certificate"
    # p = 5 carries the p = 4.5 row's states too, and the upper check the
    # lower check's, whether their Haar parts run or not
    assert np.array_equal(haars[stopped.p], haars[lower.p])
    assert np.array_equal(haars[upper.p], lower.search_states[: n_haar - 32])


@pytest.mark.parametrize("seed", [0, 7919])
def test_a_warm_scan_draws_no_random_state(seed, monkeypatch):
    # a continued search runs the queue's own Haar seeds after its carried
    # states, so once the queues are cached a scan draws nothing
    cfg = opt.OptimizerConfig(seed=seed)
    opt.mult_scan(WH3, WH3, (4.5, 5.0), cfg)
    draws, real = [], opt.rng_from

    def rng(*key):
        draws.append(key)
        return real(*key)

    monkeypatch.setattr(opt, "rng_from", rng)
    scan = opt.mult_scan(WH3, WH3, (4.5, 5.0), cfg)
    assert any(r.continued_restarts for r in scan.rows)
    assert draws == []


def test_a_continued_search_takes_the_nearest_searched_row_ties_to_the_lower(monkeypatch):
    # each double row hands on 40 "end states" that carry its p; without a
    # gap root the onset is bisected, and each midpoint is as far from the
    # ends of its bracket
    sources = {}

    def check(a, b, p, config=None, certificates=(), tensor=None, haar=None):
        sources[p] = None if haar is None else (haar.shape, haar[0, 0])
        return types.SimpleNamespace(
            violated=p > 4.79, certificate=np.full(9, p, dtype=complex),
            search_states=np.full((40, 9), p, dtype=complex),
        )

    monkeypatch.setattr(opt, "mult_check", check)
    _no_gap_root(monkeypatch)
    scan = opt.mult_scan(WH3, WH3, (4.5, 5.0), resolution=0.2)
    assert scan.placed_by == "bisection"
    # all but the last 32 of the 40 are carried
    carried = {p: ((8, 9), q) for p, q in {5.0: 4.5, 4.75: 4.5, 4.875: 4.75}.items()}
    assert sources == {4.5: None, **carried}


def test_haar_takes_the_first_haar_slots_of_the_queue():
    phi = zoo.random_channel(3, 3, 2, seed=8)
    cfg = dataclasses.replace(FAST, restarts=20)
    queue, n = opt._seed_queue(3, cfg.seed, cfg.restarts)
    plain = opt.estimate_nu_p(phi, 3.0, cfg)
    # the queue's own Haar seeds carried, all of them or none
    for haar in (queue[n:], queue[n:n]):
        _assert_same_fields(opt.estimate_nu_p(phi, 3.0, cfg, haar=haar), plain, opt.OptimizerReport)
    # carried states take the first slots, and the queue's own seeds the rest
    kept = np.array([random_pure_state(3, rng_from(99, i)) for i in range(5)])
    rep = opt.estimate_nu_p(phi, 3.0, cfg, haar=kept)
    given = opt.estimate_nu_p(phi, 3.0, cfg, seeds=np.concatenate([queue[:n], kept, queue[n + 5 :]]))
    assert rep.n_structured_seeds == n
    _assert_same_fields(rep, dataclasses.replace(given, n_structured_seeds=n), opt.OptimizerReport)
    with pytest.raises(ValueError, match="cannot go with seeds"):
        opt.estimate_nu_p(phi, 3.0, cfg, seeds=queue, haar=kept)


def _wrong_haars(d, slots):
    """Malformed ``haar`` stacks for a queue of ``slots`` Haar seeds in C^d,
    each with the refusal it gets."""
    shape = rf"haar has shape .*; need \(k, {d}\) with k <= {slots}"
    nan = np.eye(d)[:3].astype(complex)
    nan[1, 0] = np.nan
    return [
        (np.zeros((5, d - 1)), shape),  # states of the wrong length
        (np.zeros(d), shape),  # one state, not a stack
        (np.zeros((2, 5, d)), shape),  # a stack of stacks
        (np.zeros((slots + 1, d)), shape),  # one state more than the queue has slots
        (nan, "haar row 1 has norm nan; need a finite, nonzero vector"),
        (np.zeros((5, d)), "haar row 0 has norm 0.0; need a finite, nonzero vector"),
    ]


def test_a_malformed_haar_is_refused_before_any_pass(monkeypatch):
    # the structured seeds of WH3⊗WH3 pass bound = 0 on their own, so the
    # search would stop before its Haar part: the check must come first
    ww = chan.tensor(WH3, WH3)
    cfg = opt.OptimizerConfig(restarts=200)
    n = opt._seed_queue(9, cfg.seed, cfg.restarts)[1]
    assert len(opt.estimate_nu_p(ww, 5.0, cfg, bound=0.0).restart_values) == n == 82
    passes = []
    monkeypatch.setattr(opt, "_iterate", lambda *args: passes.append(args))
    for haar, refusal in _wrong_haars(9, cfg.restarts - n):
        with pytest.raises(ValueError, match=refusal):
            opt.estimate_nu_p(ww, 5.0, cfg, bound=0.0, haar=haar)
    assert passes == []


@pytest.mark.parametrize("certified", [False, True], ids=["search", "certificate"])
def test_mult_check_refuses_a_malformed_haar_before_any_estimate(certified, monkeypatch):
    # at p = 5 the structured seeds, or a polished certificate, decide the
    # violation, so neither ever needs the Haar part
    certificates = (opt._seed_queue(9, 0, 1)[0][0],) if certified else ()
    rep = opt.mult_check(WH3, WH3, 5.0, certificates=certificates)
    assert rep.violated and rep.decided_by == ("certificate" if certified else "search")
    passes = []
    monkeypatch.setattr(opt, "_iterate", lambda *args: passes.append(args))
    for haar, refusal in _wrong_haars(9, 200 - 82):
        with pytest.raises(ValueError, match=refusal):
            opt.mult_check(WH3, WH3, 5.0, certificates=certificates, haar=haar)
    assert passes == []


def test_a_norm_out_of_float_range_names_p_and_the_trace_power():
    # every output of WH3 has spectrum (1/2, 1/2, 0): Tr Γ^p ≈ 2 at p = 1e-4,
    # and 2 ** 1e4 overflows a float
    cfg = dataclasses.replace(FAST, restarts=2)
    with pytest.raises(OverflowError, match=r"p = 0\.0001 .*Tr Γ\^p = "):
        opt.estimate_nu_p(WH3, 1e-4, cfg)


def test_a_trace_power_below_the_least_normal_float_names_p_and_the_trace_power():
    # every output of WH3 has spectrum (1/2, 1/2, 0): Tr Γ^p = 2^(1 - p), which
    # is 0 in floats at p = 2000 and still normal at p = 1000
    with pytest.raises(FloatingPointError, match=r"p = 2000\.0: Tr Γ\^p = 0\.0"):
        opt.estimate_nu_p(WH3, 2000.0)
    rep = opt.estimate_nu_p(WH3, 1000.0)
    assert rep.best_trace_power == pytest.approx(2.0**-999, rel=1e-9)
    assert rep.best_value == pytest.approx(2.0 ** (1 / 1000) / 2, rel=1e-12)
