"""Tests for output entropies, the minimal output Rényi entropy and the
minimum-output-rank search."""

import math

import numpy as np
import pytest

from cptwb import channels as chan
from cptwb import entropy, linalg as la, optimize, zoo
from cptwb._rng import random_density, random_pure_state

FAST = optimize.OptimizerConfig(restarts=10, max_iters=300, seed=0)


def test_von_neumann_pure_and_uniform():
    rng = np.random.default_rng(40)
    psi = random_pure_state(4, rng)
    assert entropy.von_neumann(np.outer(psi, psi.conj())) < 1e-12
    assert abs(entropy.von_neumann(np.eye(5) / 5) - math.log(5)) < 1e-12


def test_von_neumann_normalizes_trace():
    rng = np.random.default_rng(41)
    rho = random_density(3, rng)
    assert abs(entropy.von_neumann(rho) - entropy.von_neumann(7.0 * rho)) < 1e-12


def test_von_neumann_additive_on_products():
    rng = np.random.default_rng(42)
    a = random_density(2, rng)
    b = random_density(3, rng)
    s = entropy.von_neumann(la.kron(a, b))
    assert abs(s - entropy.von_neumann(a) - entropy.von_neumann(b)) < 1e-10


def test_renyi_closed_forms():
    rho = np.diag([0.5, 0.3, 0.2, 0.0])
    # order 0: log of the rank
    assert abs(entropy.renyi(rho, 0.0) - math.log(3)) < 1e-12
    # order 2: collision entropy -log Tr rho^2
    want = -math.log(0.25 + 0.09 + 0.04)
    assert abs(entropy.renyi(rho, 2.0) - want) < 1e-12
    # order 1 dispatches to von Neumann
    assert abs(entropy.renyi(rho, 1.0) - entropy.von_neumann(rho)) < 1e-12


def test_renyi_monotone_in_order():
    rng = np.random.default_rng(43)
    for _ in range(10):
        rho = random_density(4, rng)
        orders = [0.3, 0.7, 1.0, 1.5, 2.5, 5.0]
        vals = [entropy.renyi(rho, p) for p in orders]
        assert all(x >= y - 1e-10 for x, y in zip(vals, vals[1:]))


def test_renyi_continuity_at_one():
    rng = np.random.default_rng(44)
    for _ in range(10):
        rho = random_density(5, rng)
        s1 = entropy.von_neumann(rho)
        assert abs(entropy.renyi(rho, 1.0 + 1e-4) - s1) < 1e-3
        assert abs(entropy.renyi(rho, 1.0 - 1e-4) - s1) < 1e-3


def test_renyi_rejects_negative_order():
    with pytest.raises(ValueError):
        entropy.renyi(np.eye(2) / 2, -0.5)


@pytest.mark.parametrize("p", [float("inf"), float("nan")])
def test_renyi_rejects_non_finite_order(p):
    with pytest.raises(ValueError, match=f"Rényi order .*{p}"):
        entropy.renyi(np.eye(2) / 2, p)


def test_coherent_information_identity_and_depolarizing():
    d = 3
    uniform = np.eye(d) / d
    # noiseless channel leaks nothing to the environment
    assert abs(entropy.coherent_information(zoo.identity_channel(d), uniform) - math.log(d)) < 1e-10
    # fully depolarizing: S(I/d) - S(I/d^2) = -log d
    assert abs(entropy.coherent_information(zoo.depolarizing(d), uniform) + math.log(d)) < 1e-10


def test_min_output_rank_closed_cases():
    cfg = optimize.OptimizerConfig(restarts=12, max_iters=200, seed=0)
    r_id, _ = entropy.min_output_rank(zoo.identity_channel(3), cfg)
    assert r_id == 1
    r_dep, _ = entropy.min_output_rank(zoo.depolarizing(2), cfg)
    assert r_dep == 2
    r_wh, psi = entropy.min_output_rank(zoo.werner_holevo(3), cfg)
    assert r_wh == 2
    out = chan.apply(zoo.werner_holevo(3), np.outer(psi, psi.conj()))
    assert la.numerical_rank(out) == 2


def test_min_output_rank_applies_the_channel_once(monkeypatch):
    # to the stack of restart states, not once per state
    shapes = []
    apply = chan.apply

    def counted_apply(ch, rho):
        shapes.append(np.shape(rho))
        return apply(ch, rho)

    monkeypatch.setattr(chan, "apply", counted_apply)
    entropy.min_output_rank(zoo.random_channel(3, 3, 2, seed=5), FAST)
    assert shapes == [(FAST.restarts, 3, 3)]


# ---------------------------------------------------------------------------
# minimal output entropy
# ---------------------------------------------------------------------------

def test_estimate_smin_flat_family():
    # WH(3) has flat output spectrum (1/2, 1/2): S_p = log 2 at every order
    phi = zoo.werner_holevo(3)
    for p in (0.0, 0.5, 1.0, 2.0, 5.0):
        rep = entropy.estimate_smin_p(phi, p, FAST)
        assert abs(rep.value - math.log(2)) < 1e-9, f"p={p}"


def test_smin_at_one_is_one_search_on_the_entropy(monkeypatch):
    # p = 1 runs the fixed-point loop once, on Tr Gamma log Gamma itself
    calls = []
    real = optimize._iterate

    def iterate(ch, states, p, *args):
        calls.append(p)
        return real(ch, states, p, *args)

    monkeypatch.setattr(optimize, "_iterate", iterate)
    ch = zoo.random_channel(3, 3, 2, seed=4)
    rep = entropy.estimate_smin_p(ch, 1.0, FAST)
    assert calls == [1.0]
    assert rep.nu_value is None and not hasattr(rep, "extrapolated")
    out = chan.apply(ch, la._outer(rep.argmin))
    assert abs(rep.value - entropy.von_neumann(out)) <= 1e-12


@pytest.mark.parametrize("seed", range(4))
def test_smin_at_one_reaches_pure_outputs(seed):
    # two Kraus operators on C^4 -> C^4: some input has a pure output (the
    # 4x4 pencil A_1 - z A_2 is singular at an eigenvalue z), so S_min = 0
    ch = zoo.random_channel(4, 4, 2, seed=seed)
    assert entropy.estimate_smin_p(ch, 1.0).value <= 1e-11


def test_smin_at_one_minimizes_the_entropy_itself():
    # the maximizer of Tr Gamma^1.01 has S = 0.3121267 here: a minimizer of
    # a nearby Renyi entropy is not the von Neumann minimizer
    ch = zoo.random_channel(3, 4, 3, seed=27)
    assert entropy.estimate_smin_p(ch, 1.0).value <= 0.312122


def test_estimate_smin_identity_is_zero():
    rep = entropy.estimate_smin_p(zoo.identity_channel(4), 2.0, FAST)
    assert abs(rep.value) < 1e-12


def test_estimate_smin_rejects_negative_order():
    with pytest.raises(ValueError):
        entropy.estimate_smin_p(zoo.depolarizing(2), -1.0, FAST)


def test_estimate_smin_rejects_an_order_whose_reciprocal_overflows():
    # 1/1e-320 is inf, so the norm's root would too; 1e-3 still runs
    with pytest.raises(ValueError, match="1/p"):
        entropy.estimate_smin_p(zoo.depolarizing(2), 1e-320, FAST)
    rep = entropy.estimate_smin_p(zoo.werner_holevo(3), 1e-3, FAST)
    assert abs(rep.value - math.log(2.0)) < 1e-9
    assert math.isfinite(rep.nu_value)


@pytest.mark.parametrize("p", [0.5, 1.0, 2.0])
def test_estimate_smin_rejects_a_channel_that_is_not_trace_preserving(p):
    # the adjoint is unital, not trace-preserving (Σ A†A − I up to 0.75):
    # its "S_min" would be a functional of unnormalized outputs
    phi = chan.adjoint(zoo.random_channel(2, 4, 2, seed=3))
    with pytest.raises(ValueError, match="trace-preserving"):
        entropy.estimate_smin_p(phi, p, FAST)
