"""Acceptance criteria for the workbench, one test per criterion.

Each test is a single pass/fail gate with its tolerances pinned inline;
run ``pytest -v tests/test_acceptance.py`` to get one line per criterion.
Criterion 15 records its findings as a warning so they appear in the run
summary; its pass is gated only on producing the report.
"""

import math
import warnings

import numpy as np

from cptwb import channels as chan
from cptwb import decompose as dec
from cptwb import entropy
from cptwb import linalg as la
from cptwb import optimize as opt
from cptwb import zoo
from cptwb._rng import haar_unitary, random_pure_state, rng_from

CFG = opt.OptimizerConfig(restarts=12, max_iters=500, seed=0, tensor_restarts=24)


def _beta(d: int) -> np.ndarray:
    """Maximally entangled unit vector on C^d ⊗ C^d."""
    v = np.eye(d, dtype=np.complex128).reshape(-1)
    return v / np.sqrt(d)


def test_criterion_01_wh3_p5_multiplicativity_violation():
    rep = opt.mult_check(zoo.werner_holevo(3), zoo.werner_holevo(3), 5.0, CFG)
    assert rep.violated
    # entangled input: Tr[(W⊗W)(ββ†)]^5 = 1/243 + 8/12^5 = 43/10368
    ww = chan.tensor(zoo.werner_holevo(3), zoo.werner_holevo(3))
    tp_beta = opt.output_trace_power(ww, _beta(3), 5.0)
    assert abs(tp_beta - 43.0 / 10368.0) <= 1e-6
    assert abs(rep.nu_product_lb**5 - 43.0 / 10368.0) <= 1e-6
    # product inputs: (nu_5(W) * nu_5(W))^5 = 4^{-4}
    assert abs(rep.product_of_singles**5 - 4.0**-4) <= 1e-6
    assert rep.nu_product_lb > rep.product_of_singles


def test_criterion_02_wh3_violation_threshold():
    scan = opt.mult_scan(
        zoo.werner_holevo(3), zoo.werner_holevo(3), (4.5, 5.0), CFG,
        resolution=0.01,
    )
    assert scan.threshold is not None
    assert abs(scan.threshold - 4.79) <= 0.02


def test_criterion_03_wh3_multiplicative_at_small_p():
    for p in (1.5, 2.0):
        rep = opt.mult_check(zoo.werner_holevo(3), zoo.werner_holevo(3), p, CFG)
        assert not rep.violated, f"p={p}"
        assert abs(rep.gap) < 1e-6, f"p={p}"


def test_criterion_04_fss_equals_depolarized_wh_third():
    j1 = chan.kraus_to_choi(zoo.fss_psi()).matrix
    j2 = chan.kraus_to_choi(zoo.depolarized_wh(3, 1.0 / 3.0)).matrix
    assert np.abs(j1 - j2).max() <= 1e-10


def test_criterion_05_fss_fixes_real_density_matrices():
    rng = np.random.default_rng(1005)
    phi = zoo.fss_psi()
    target = np.eye(3) / 3.0
    worst = 0.0
    for _ in range(1000):
        g = rng.normal(size=(3, 3))
        rho = g @ g.T
        rho /= np.trace(rho)
        worst = max(worst, float(np.abs(chan.apply(phi, rho) - target).max()))
    assert worst <= 1e-10


def test_criterion_06_fss_minimal_output_entropy():
    rep = entropy.estimate_smin_p(zoo.fss_psi(), 1.0, CFG)
    want = math.log(3) - (2.0 / 3.0) * math.log(2)
    assert abs(rep.value - want) <= 1e-6
    # one-shot Holevo quantity of this covariant channel: log 3 - S_min
    assert abs((math.log(3) - rep.value) - (2.0 / 3.0) * math.log(2)) <= 1e-6
    # argmin is a coordinate permutation of (1, ±i, 0)/√2 up to global phase
    targets = []
    for pos in ((0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1)):
        for sign in (1.0, -1.0):
            t = np.zeros(3, dtype=np.complex128)
            t[pos[0]] = 1.0 / np.sqrt(2)
            t[pos[1]] = sign * 1.0j / np.sqrt(2)
            targets.append(t)
    overlap = max(abs(np.vdot(t, rep.argmin)) for t in targets)
    assert math.sqrt(max(2.0 * (1.0 - overlap), 0.0)) <= 1e-4


def test_criterion_07_subunitary_example_spectra():
    # swap blocks: uniform superposition -> spectrum (2/3, 1/6, 1/6)
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    phi = zoo.shift_subunitary(3, [swap, swap, swap])
    psi = np.ones(3) / np.sqrt(3)
    w = la.psd_eigvals(chan.apply(phi, np.outer(psi, psi)), what="output")
    assert np.abs(w - np.array([2 / 3, 1 / 6, 1 / 6])).max() <= 1e-10
    # rotation blocks reproduce the d = 3 antisymmetric channel exactly
    rot = np.array([[0.0, 1.0], [-1.0, 0.0]])
    j1 = chan.kraus_to_choi(zoo.shift_subunitary(3, [rot, rot, rot])).matrix
    j2 = chan.kraus_to_choi(zoo.werner_holevo(3)).matrix
    assert np.abs(j1 - j2).max() <= 1e-10
    # transpose-shift channel: (1, i, 0)/√2 -> spectrum (2/3, 1/3, 0)
    psi_c = np.array([1.0, 1.0j, 0.0]) / np.sqrt(2)
    out = chan.apply(zoo.fss_psi(), np.outer(psi_c, psi_c.conj()))
    w = la.psd_eigvals(out, what="output")
    assert np.abs(w - np.array([2 / 3, 1 / 3, 0.0])).max() <= 1e-10


def test_criterion_08_monotone_iteration_on_random_channels():
    cfg = opt.OptimizerConfig(restarts=10, max_iters=300, seed=0)
    rng = np.random.default_rng(1008)
    for trial in range(100):
        d_in = int(rng.integers(2, 5))
        d_out = int(rng.integers(2, 5))
        k_min = -(-d_in // d_out)
        k = int(rng.integers(k_min, d_in * d_out + 1))
        phi = zoo.random_channel(d_in, d_out, k, seed=1000 + trial)
        for p in (0.5, 1.5, 3.0, 5.0):
            rep = opt.estimate_nu_p(phi, p, cfg)
            assert rep.monotonicity_violations == 0, (trial, p)


def test_criterion_09_entangled_state_is_a_fixed_point_at_p5():
    ww = chan.tensor(zoo.werner_holevo(3), zoo.werner_holevo(3))
    beta = _beta(3)
    before = opt.output_trace_power(ww, beta, 5.0)
    # a run from beta ends after one step as converged: that step moved the
    # objective by at most value_tol
    rep = opt.estimate_nu_p(ww, 5.0, opt.OptimizerConfig(max_iters=1), seeds=[beta])
    assert rep.statuses == ("converged",)
    assert abs(rep.best_trace_power - before) < 1e-9


def test_criterion_10_horn_vectors_on_random_states():
    rng = np.random.default_rng(1010)
    worst = 0.0
    for trial in range(500):
        d = int(rng.integers(2, 9))
        rank = int(rng.integers(1, d + 1))
        g = rng.normal(size=(d, rank)) + 1j * rng.normal(size=(d, rank))
        rho = g @ g.conj().T
        rho /= np.trace(rho).real
        xs = dec.horn_vectors(rho)
        acc = sum(np.outer(x, x.conj()) for x in xs) / d
        worst = max(worst, float(np.abs(acc - rho).max()))
        for x in xs:
            worst = max(worst, abs(np.linalg.norm(x) - 1.0))
    assert worst < 1e-10


def test_criterion_11_two_term_split_on_random_blocks():
    rng = np.random.default_rng(1011)
    for trial in range(500):
        d1 = int(rng.integers(1, 7))
        rank = int(rng.integers(1, 2 * d1 + 1))  # includes rank-deficient cases
        g = rng.normal(size=(2 * d1, rank)) + 1j * rng.normal(size=(2 * d1, rank))
        a = g @ g.conj().T
        a /= np.abs(a).max()
        d = dec.szarek_split(a, d1=d1)
        mid = 0.5 * (d.terms[0] + d.terms[1])
        assert np.abs(mid - a).max() < 1e-9, trial
        for term in d.terms:
            assert la.numerical_rank(term) <= d1, trial
            assert np.abs(term[:d1, :d1] - a[:d1, :d1]).max() < 1e-9, trial
            assert np.abs(term[d1:, d1:] - a[d1:, d1:]).max() < 1e-9, trial


def test_criterion_12_extremality_classification_and_repair():
    assert chan.is_extreme(
        chan.KrausChannel.from_kraus([haar_unitary(3, rng_from(1012))])
    )
    assert not chan.is_extreme(zoo.depolarizing(2))

    dists = []
    for trial in range(20):
        d = 2 + (trial % 2)
        rng = rng_from(1012, trial)
        u1, u2 = haar_unitary(d, rng), haar_unitary(d, rng)
        mix = chan.KrausChannel.from_kraus([u1 / np.sqrt(2), u2 / np.sqrt(2)])
        res = chan.perturb_to_extreme(mix, epsilon0=0.1, seed=trial)
        assert chan.is_extreme(res.channel), trial
        assert chan.validate_cpt(res.channel).ok, trial
        assert res.choi_distance <= 0.2, trial
        dists.append(res.choi_distance)

    # shrinking the perturbation budget moves the repaired channel less
    rng = rng_from(1012, 99)
    u1, u2 = haar_unitary(3, rng), haar_unitary(3, rng)
    mix = chan.KrausChannel.from_kraus([u1 / np.sqrt(2), u2 / np.sqrt(2)])
    moved = [
        chan.perturb_to_extreme(mix, epsilon0=e, seed=7).choi_distance
        for e in (0.1, 0.05, 0.025)
    ]
    assert moved[0] >= moved[1] >= moved[2]
    assert all(m > 0 for m in moved)


def test_criterion_13_complement_spectra():
    # on a pure input, the direct and complementary outputs share their
    # nonzero spectrum
    rng = np.random.default_rng(1013)
    for trial in range(50):
        d_in = int(rng.integers(2, 5))
        d_out = int(rng.integers(2, 5))
        k_min = -(-d_in // d_out)
        k = int(rng.integers(k_min, d_in * d_out + 1))
        phi = zoo.random_channel(d_in, d_out, k, seed=2000 + trial)
        comp = chan.complement(phi)
        psi = random_pure_state(d_in, rng)
        rho = np.outer(psi, psi.conj())
        w1 = la.psd_eigvals(chan.apply(phi, rho), what="output")
        w2 = la.psd_eigvals(chan.apply(comp, rho), what="output")
        n = max(len(w1), len(w2))
        pad1 = np.zeros(n)
        pad1[: len(w1)] = w1
        pad2 = np.zeros(n)
        pad2[: len(w2)] = w2
        assert np.abs(np.sort(pad1) - np.sort(pad2)).max() <= 1e-10, trial
    # the complement of the noiseless channel traces out everything
    comp = chan.complement(zoo.identity_channel(3))
    assert comp.d_out == 1
    rho = np.eye(3) / 3
    assert abs(chan.apply(comp, rho)[0, 0] - 1.0) <= 1e-12


def test_criterion_14_renyi_limits():
    rng = np.random.default_rng(1014)
    for trial in range(100):
        d = int(rng.integers(2, 6))
        rank = int(rng.integers(1, d + 1))
        g = rng.normal(size=(d, rank)) + 1j * rng.normal(size=(d, rank))
        rho = g @ g.conj().T
        rho /= np.trace(rho).real
        assert entropy.renyi(rho, 0.0) == math.log(la.numerical_rank(rho))
        s1 = entropy.von_neumann(rho)
        assert abs(entropy.renyi(rho, 1.0 + 1e-4) - s1) < 1e-3, trial
        assert abs(entropy.renyi(rho, 1.0 - 1e-4) - s1) < 1e-3, trial


def test_criterion_15_d4_cycle_channel_report():
    cycles = [(1, 2, 3), (1, 3, 4), (1, 4, 2), (2, 4, 3)]
    phi = zoo.shift_subunitary(4, zoo.cycle_window_unitaries(4, cycles))
    assert chan.validate_cpt(phi).ok

    cfg = opt.OptimizerConfig(restarts=24, max_iters=400, seed=0)
    single_rank, _ = entropy.min_output_rank(phi, cfg)

    tensor = chan.tensor(phi, phi)
    beta = _beta(4)
    out = chan.apply(tensor, np.outer(beta, beta.conj()))
    tensor_beta_rank = la.numerical_rank(out)

    report = {
        "single_min_output_rank": single_rank,
        "single_target": 3,
        "tensor_beta_output_rank": tensor_beta_rank,
        "tensor_target": 10,
    }
    warnings.warn(f"d=4 cycle-window channel report: {report}")
    # the gate is that the report exists with integer entries; whether the
    # targets are met is data, recorded above
    assert isinstance(single_rank, int) and 1 <= single_rank <= 4
    assert isinstance(tensor_beta_rank, int) and 1 <= tensor_beta_rank <= 16
