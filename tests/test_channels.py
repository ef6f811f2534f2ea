"""Tests for Kraus/Choi conversions, contractions, complements, and the
extreme-point machinery."""

import json

import numpy as np
import pytest

from cptwb import channels as ch
from cptwb import linalg as la
from cptwb import zoo
from cptwb._rng import haar_unitary, random_density, random_pure_state, rng_from


# ---------------------------------------------------------------------------
# construction and validation
# ---------------------------------------------------------------------------

def test_kraus_channel_shape_checks():
    with pytest.raises(ch.ChannelValidationError):
        ch.KrausChannel(2, 2, (np.zeros((2, 3)),))
    with pytest.raises(ch.ChannelValidationError):
        ch.KrausChannel(2, 2, ())


@pytest.mark.parametrize(
    "dims, name",
    [((0, 2), "d_in"), ((2, 0), "d_out"), ((-1, 2), "d_in"), ((2.0, 2), "d_in"),
     ((True, 2), "d_in"), ((2, True), "d_out"), (("2", 2), "d_in"), ((2, None), "d_out")],
)
def test_kraus_channel_refuses_dimensions_that_are_not_integers_from_1(dims, name):
    with pytest.raises(ch.ChannelValidationError, match=f"{name} must be an integer >= 1"):
        ch.KrausChannel(*dims, (np.zeros((2, 2)),))


def test_builders_get_the_dimension_check_and_numpy_dimensions_become_ints():
    # a 0 → 2 channel would fail validate_cpt inside numpy, with no word on why
    with pytest.raises(ch.ChannelValidationError, match="d_in must be an integer >= 1, got 0"):
        zoo.random_channel(0, 2, 1)
    phi = ch.KrausChannel(np.int64(2), np.int32(1), (np.ones((1, 2)) / np.sqrt(2),))
    assert (phi.d_in, phi.d_out) == (2, 1) and type(phi.d_in) is type(phi.d_out) is int
    json.dumps(ch.channel_to_json(phi))  # numpy integers are not JSON


def test_kraus_stack_is_built_once_and_read_only():
    phi = zoo.random_channel(3, 4, 5, seed=2)
    stack = phi.kraus_stack
    assert stack is phi.kraus_stack
    assert stack.shape == (5, 4, 3) and not stack.flags.writeable
    assert stack.tobytes() == np.stack(phi.kraus).tobytes()


def test_channels_and_choi_matrices_compare_and_hash_by_identity():
    # the generated __eq__ and __hash__ would compare and hash arrays, and raise
    a, b = zoo.werner_holevo(3), zoo.werner_holevo(3)
    assert a == a and a != b
    assert len({a, b, a}) == 2
    assert a.choi == a.choi and a.choi != b.choi
    assert len({a.choi, b.choi}) == 2


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
def test_kraus_channel_rejects_non_finite_operators(bad):
    # a NaN operator used to reach the optimizer, which reported
    # best_value 0.0 with every restart converged
    with pytest.raises(ch.ChannelValidationError, match="finite"):
        ch.KrausChannel.from_kraus([np.diag([bad, 1.0])])


def test_validate_cpt_refuses_a_map_that_misses_trace_preservation_by_1e_6():
    # Σ A†A = (1 + 1e-6)·I: far below the 0.5 of a visibly wrong map, far
    # above the roundoff of a real channel
    wh3 = zoo.werner_holevo(3)
    scaled = ch.KrausChannel.from_kraus([np.sqrt(1.0 + 1e-6) * a for a in wh3.kraus])
    rep = ch.validate_cpt(scaled)
    assert not rep.ok and not rep.trace_preserving and rep.choi_psd
    assert abs(rep.tp_residual - 1e-6) <= 1e-12
    assert ch.validate_cpt(wh3).ok


def test_validate_cpt_accepts_unitary_and_flags_junk():
    u = haar_unitary(3, rng_from(11))
    rep = ch.validate_cpt(ch.KrausChannel.from_kraus([u]))
    assert rep.ok and rep.trace_preserving and rep.choi_psd
    assert rep.tp_residual < 1e-12

    bad = ch.KrausChannel.from_kraus([0.5 * u])
    rep = ch.validate_cpt(bad)
    assert not rep.ok and not rep.trace_preserving
    assert rep.messages


def test_apply_preserves_trace_and_positivity():
    rng = np.random.default_rng(12)
    phi = zoo.random_channel(3, 4, 5, seed=1)
    for _ in range(10):
        rho = random_density(3, rng)
        out = ch.apply(phi, rho)
        assert abs(np.trace(out).real - 1.0) < 1e-10
        assert la.psd_eigvals(out, what="output").min() >= 0


def test_apply_adjoint_duality():
    # <Phi(rho), X> == <rho, Phi^†(X)> for all rho, X
    rng = np.random.default_rng(13)
    phi = zoo.random_channel(2, 3, 4, seed=2)
    for _ in range(10):
        rho = random_density(2, rng)
        x = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        lhs = np.trace(ch.apply(phi, rho).conj().T @ x)
        rhs = np.trace(rho.conj().T @ ch.apply_adjoint(phi, x))
        assert abs(lhs - rhs) < 1e-10


def test_adjoint_is_unital():
    phi = zoo.random_channel(3, 3, 4, seed=3)
    assert np.abs(ch.apply_adjoint(phi, np.eye(3)) - np.eye(3)).max() < 1e-10


@pytest.mark.parametrize(
    "phi",
    [
        zoo.random_channel(3, 4, 3, seed=23),
        ch.tensor(zoo.werner_holevo(3), zoo.werner_holevo(3)),
        zoo.random_channel(16, 16, 2, seed=24),  # d_in * d_out at the limit
        zoo.random_channel(9, 30, 2, seed=25),  # above it: the Kraus loop
    ],
)
def test_apply_and_apply_adjoint_act_on_each_matrix_of_a_stack(phi):
    rng = np.random.default_rng(26)

    def stack(d):
        return rng.normal(size=(2, 3, d, d)) + 1j * rng.normal(size=(2, 3, d, d))

    rho, x = stack(phi.d_in), stack(phi.d_out)
    out, m = ch.apply(phi, rho), ch.apply_adjoint(phi, x)
    assert out.shape == (2, 3, phi.d_out, phi.d_out)
    assert m.shape == (2, 3, phi.d_in, phi.d_in)
    for i in np.ndindex(2, 3):
        # bit for bit: a matrix's result does not depend on the stack
        assert np.array_equal(out[i], ch.apply(phi, rho[i]))
        assert np.array_equal(m[i], ch.apply_adjoint(phi, x[i]))
        kraus_sum = sum(la.dagger(a) @ x[i] @ a for a in phi.kraus)
        assert np.abs(m[i] - kraus_sum).max() <= 1e-13 * np.abs(kraus_sum).max()

    for bad in (np.zeros((2, phi.d_in, phi.d_in + 1)), np.zeros(phi.d_in)):
        with pytest.raises(la.ShapeError):
            ch.apply(phi, bad)
    with pytest.raises(la.ShapeError):
        ch.apply_adjoint(phi, np.zeros((2, phi.d_out + 1, phi.d_out + 1)))


def _products():
    """Products whose factors are all within TRANSFER_DIM_MAX, nested too,
    and one with a factor above it, which runs the product's own Kraus loop."""
    a, b = zoo.random_channel(2, 3, 2, seed=30), zoo.random_channel(3, 2, 3, seed=31)
    yield ch.tensor(a, b)  # 2→3 ⊗ 3→2
    yield ch.tensor(zoo.random_channel(3, 3, 2, seed=32), zoo.random_channel(2, 4, 2, seed=33))
    yield ch.tensor(ch.tensor(a, b), zoo.random_channel(2, 2, 3, seed=34))  # (A⊗B)⊗C
    big = zoo.random_channel(17, 16, 2, seed=35)  # above TRANSFER_DIM_MAX
    assert big.d_in * big.d_out > ch.TRANSFER_DIM_MAX
    yield ch.tensor(zoo.random_channel(2, 2, 2, seed=36), big)


@pytest.mark.parametrize("lead", [(), (5,), (2, 3)], ids=["matrix", "stack", "stack-2d"])
@pytest.mark.parametrize("phi", list(_products()), ids=["2-3x3-2", "3-3x2-4", "nested", "kraus-loop"])
def test_apply_adjoint_of_a_product_goes_factor_by_factor(phi, lead):
    # the full Kraus set of A⊗B is the reference; each matrix of a stack is
    # bit for bit the matrix computed alone.  Factors within the limit act
    # through their transfer matrices (the nested case's inner product
    # through its own), and the "kraus-loop" case, whose factor is above
    # it, loops over the product's own Kraus operators
    assert phi.factors and "transfer" not in phi.__dict__
    rng = np.random.default_rng(37)
    x = rng.normal(size=lead + (phi.d_out,) * 2) + 1j * rng.normal(size=lead + (phi.d_out,) * 2)
    m = ch.apply_adjoint(phi, x)
    assert m.shape == lead + (phi.d_in, phi.d_in)
    for i in np.ndindex(*lead):
        kraus_sum = sum(la.dagger(a) @ x[i] @ a for a in phi.kraus)
        assert np.abs(m[i] - kraus_sum).max() <= 1e-13 * np.abs(kraus_sum).max()
        if lead:
            assert np.array_equal(m[i], ch.apply_adjoint(phi, x[i]))
    assert "transfer" not in phi.__dict__
    # a copy from JSON has lost its factors and takes the transfer path or
    # the Kraus loop of the whole product
    copy = ch.channel_from_json(ch.channel_to_json(phi), validate=False)
    assert copy.factors == ()
    plain = ch.apply_adjoint(copy, x)
    assert np.abs(plain - m).max() <= 1e-13 * np.abs(plain).max()


# ---------------------------------------------------------------------------
# Choi conversions
# ---------------------------------------------------------------------------

def test_choi_normalization_and_action():
    phi = zoo.random_channel(3, 2, 3, seed=4)
    j = ch.kraus_to_choi(phi)
    assert abs(np.trace(j.matrix).real - 1.0) < 1e-12
    # reduced state on the input leg must be maximally mixed (trace preservation)
    red = la.partial_trace(j.matrix, (3, 2), keep=0)
    assert np.abs(red - np.eye(3) / 3).max() < 1e-12


def test_choi_kraus_round_trip():
    rng = np.random.default_rng(14)
    for trial in range(20):
        d_in = int(rng.integers(2, 5))
        d_out = int(rng.integers(2, 5))
        k = int(rng.integers(1, d_in * d_out + 1))
        phi = zoo.random_channel(d_in, d_out, k, seed=100 + trial)
        j = ch.kraus_to_choi(phi)
        back = ch.choi_to_kraus(j)
        assert ch.choi_distance(phi, back) < 1e-10
        # recovered set is minimal
        assert len(back) == ch.choi_rank(phi)


def test_choi_matrix_is_checked_and_symmetrized_when_built():
    m = np.diag([0.5, 0.0, 0.0, 0.5]).astype(complex)
    m[0, 3] = 0.5 + 1e-15j  # skew far below HERM_TOL
    m[3, 0] = 0.5
    j = ch.ChoiMatrix(2, 2, m)
    assert np.array_equal(j.matrix, j.matrix.conj().T)
    assert j.matrix[0, 3] == 0.5 + 0.5e-15j
    m[3, 0] = -0.5
    with pytest.raises(la.NotHermitianError, match="Choi matrix"):
        ch.ChoiMatrix(2, 2, m)


def test_choi_to_kraus_rejects_non_psd():
    j = ch.ChoiMatrix(2, 2, np.diag([0.5, 0.5, 0.5, -0.5]))
    with pytest.raises(la.NotPSDError):
        ch.choi_to_kraus(j)


def test_choi_rank_counts_independent_kraus():
    u = haar_unitary(3, rng_from(15))
    assert ch.choi_rank(ch.KrausChannel.from_kraus([u])) == 1
    # duplicating a Kraus operator must not inflate the rank
    dup = ch.KrausChannel.from_kraus([u / np.sqrt(2), u / np.sqrt(2)])
    assert ch.choi_rank(dup) == 1
    assert ch.choi_rank(zoo.depolarizing(2)) == 4


# ---------------------------------------------------------------------------
# compose / tensor
# ---------------------------------------------------------------------------

def test_compose_matches_sequential_action():
    rng = np.random.default_rng(16)
    first = zoo.random_channel(2, 3, 2, seed=5)
    after = zoo.random_channel(3, 2, 3, seed=6)
    comp = ch.compose(after, first)
    for _ in range(5):
        rho = random_density(2, rng)
        direct = ch.apply(after, ch.apply(first, rho))
        assert np.abs(ch.apply(comp, rho) - direct).max() < 1e-10


def test_tensor_action_and_choi_rank_multiplicativity():
    rng = np.random.default_rng(17)
    a = zoo.random_channel(2, 2, 2, seed=7)
    b = zoo.random_channel(3, 2, 3, seed=8)
    t = ch.tensor(a, b)
    assert (t.d_in, t.d_out) == (6, 4)
    ra = random_density(2, rng)
    rb = random_density(3, rng)
    lhs = ch.apply(t, la.kron(ra, rb))
    rhs = la.kron(ch.apply(a, ra), ch.apply(b, rb))
    assert np.abs(lhs - rhs).max() < 1e-10
    assert ch.choi_rank(t) == ch.choi_rank(a) * ch.choi_rank(b)


@pytest.mark.parametrize("dims", [((2, 2, 1), (3, 2, 3)), ((3, 2, 4), (2, 4, 2))])
def test_tensor_kraus_set_is_the_kron_of_each_pair(dims):
    a = zoo.random_channel(*dims[0], seed=21)
    b = zoo.random_channel(*dims[1], seed=22)
    t = ch.tensor(a, b)
    want = [np.kron(x, y) for x in a.kraus for y in b.kraus]
    assert len(t.kraus) == len(want)
    assert all(np.array_equal(k, w) for k, w in zip(t.kraus, want))


# ---------------------------------------------------------------------------
# complement
# ---------------------------------------------------------------------------

def test_complement_output_dimension_is_kraus_count():
    phi = zoo.random_channel(3, 2, 4, seed=9)
    comp = ch.complement(phi)
    assert (comp.d_in, comp.d_out) == (3, 4)
    rep = ch.validate_cpt(comp)
    assert rep.ok


def test_complement_entries_are_cross_traces():
    # [Phi^C(rho)]_{jk} = Tr(A_j rho A_k^†)
    rng = np.random.default_rng(18)
    phi = zoo.random_channel(2, 3, 3, seed=10)
    comp = ch.complement(phi)
    rho = random_density(2, rng)
    out = ch.apply(comp, rho)
    for j, aj in enumerate(phi.kraus):
        for k, ak in enumerate(phi.kraus):
            assert abs(out[j, k] - np.trace(aj @ rho @ ak.conj().T)) < 1e-12


def test_double_complement_preserves_output_spectra():
    # taking the complement twice lands on an isometrically equivalent
    # channel: output eigenvalues agree on every input state
    rng = np.random.default_rng(19)
    for trial in range(10):
        phi = zoo.random_channel(3, 3, 3, seed=200 + trial)
        cc = ch.complement(ch.complement(phi))
        psi = random_pure_state(3, rng)
        rho = np.outer(psi, psi.conj())
        w1 = la.psd_eigvals(ch.apply(phi, rho), what="output")
        w2 = la.psd_eigvals(ch.apply(cc, rho), what="output")
        n = min(len(w1), len(w2))
        assert np.abs(np.sort(w1)[::-1][:n] - np.sort(w2)[::-1][:n]).max() < 1e-10


def test_complement_of_identity_is_trace():
    comp = ch.complement(zoo.identity_channel(4))
    assert comp.d_out == 1
    rng = np.random.default_rng(20)
    rho = random_density(4, rng)
    out = ch.apply(comp, rho)
    assert out.shape == (1, 1)
    assert abs(out[0, 0] - 1.0) < 1e-12


# ---------------------------------------------------------------------------
# extreme points
# ---------------------------------------------------------------------------

def test_unitary_channels_are_extreme():
    for d in (2, 3, 4):
        u = haar_unitary(d, rng_from(21, d))
        assert ch.is_extreme(ch.KrausChannel.from_kraus([u]))


def test_mixed_unitary_is_not_extreme():
    rng = rng_from(22)
    for d in (2, 3):
        u1, u2 = haar_unitary(d, rng), haar_unitary(d, rng)
        mix = ch.KrausChannel.from_kraus([u1 / np.sqrt(2), u2 / np.sqrt(2)])
        assert not ch.is_extreme(mix)
        # Choi rank 2 <= d still makes it generalized extreme
        assert ch.is_generalized_extreme(mix)


def test_too_many_kraus_is_never_extreme():
    assert not ch.is_extreme(zoo.depolarizing(2))
    assert not ch.is_generalized_extreme(zoo.depolarizing(2))


def test_classify_reports_choi_rank():
    meta = ch.classify(zoo.werner_holevo(3))
    assert meta.choi_rank == 3
    assert meta.is_generalized_extreme
    assert meta.is_extreme


def test_perturb_to_extreme_from_mixed_unitary():
    rng = rng_from(23)
    u1, u2 = haar_unitary(3, rng), haar_unitary(3, rng)
    mix = ch.KrausChannel.from_kraus([u1 / np.sqrt(2), u2 / np.sqrt(2)])
    res = ch.perturb_to_extreme(mix, epsilon0=0.1, seed=5)
    assert not res.already_extreme
    assert ch.is_extreme(res.channel)
    assert ch.validate_cpt(res.channel).ok
    assert 0 < res.epsilon <= 0.1
    assert res.choi_distance > 0


def test_perturb_to_extreme_fixed_point():
    u = haar_unitary(2, rng_from(24))
    unitary = ch.KrausChannel.from_kraus([u])
    res = ch.perturb_to_extreme(unitary, seed=0)
    assert res.already_extreme
    assert res.choi_distance == 0.0


def test_perturb_to_extreme_makes_one_eigensolve_per_halving(monkeypatch):
    rng = rng_from(23)
    u1, u2 = haar_unitary(3, rng), haar_unitary(3, rng)
    mix = ch.KrausChannel.from_kraus([u1 / np.sqrt(2), u2 / np.sqrt(2)])
    # _extremality sees the input, then one candidate per ε tried: turning
    # down the first two candidates forces two halvings
    real, seen = ch._extremality, []

    def extremality(c):
        seen.append(c)
        rank, m, extreme = real(c)
        return rank, m, len(seen) not in (2, 3) and extreme

    monkeypatch.setattr(ch, "_extremality", extremality)
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(a.shape) or eigh(a))
    res = ch.perturb_to_extreme(mix, epsilon0=0.1, seed=5)
    assert res.halvings == 2
    # S(ε) is 3×3; every other eigensolve here is of a 9×9 Choi matrix
    assert calls.count((3, 3)) == 3


def test_perturb_to_extreme_builds_and_decomposes_each_choi_matrix_once(monkeypatch):
    # input: one build, one eigensolve (rank, minimal set and the no-op test);
    # S(ε): one eigensolve; the accepted candidate: one of each, its Choi
    # matrix shared by the extremality test and the distance
    rng = rng_from(23)
    u1, u2 = haar_unitary(3, rng), haar_unitary(3, rng)
    mix = ch.KrausChannel.from_kraus([u1 / np.sqrt(2), u2 / np.sqrt(2)])
    builds, eighs = [], []
    build, eigh = ch.kraus_to_choi, np.linalg.eigh
    monkeypatch.setattr(ch, "kraus_to_choi", lambda c: builds.append(c) or build(c))
    monkeypatch.setattr(np.linalg, "eigh", lambda a: eighs.append(a.shape) or eigh(a))
    res = ch.perturb_to_extreme(mix, epsilon0=0.1, seed=5)
    assert res.halvings == 0
    assert builds[0] is mix and builds[-1] is res.channel
    assert len(builds) == 2
    assert eighs == [(9, 9), (3, 3), (9, 9)]


@pytest.mark.parametrize("epsilon0", [float("nan"), float("inf"), -float("inf")])
def test_perturb_to_extreme_rejects_non_finite_epsilon(epsilon0, monkeypatch):
    rng = rng_from(23)
    u1, u2 = haar_unitary(3, rng), haar_unitary(3, rng)
    mix = ch.KrausChannel.from_kraus([u1 / np.sqrt(2), u2 / np.sqrt(2)])

    def no_eigh(*args):
        raise AssertionError("eigensolve reached")

    monkeypatch.setattr(np.linalg, "eigh", no_eigh)
    with pytest.raises(ValueError, match="finite"):
        ch.perturb_to_extreme(mix, epsilon0=epsilon0, seed=5)


def test_perturb_to_extreme_rejects_high_rank():
    with pytest.raises(ch.ChannelValidationError):
        ch.perturb_to_extreme(zoo.depolarizing(2))


# ---------------------------------------------------------------------------
# degrading maps
# ---------------------------------------------------------------------------

def test_verify_degrading_identity_channel():
    phi = zoo.identity_channel(3)
    trace_map = ch.complement(phi)  # d -> 1 trace channel
    rep = ch.verify_degrading(phi, trace_map)
    assert rep.ok and rep.residual < 1e-12


def test_verify_degrading_checks_one_fixed_bound():
    # scaling the trace map's Kraus operators by 1 + δ moves its Choi matrix
    # by about 2δ times its entries: inside DEGRADING_TOL = 1e-8 at
    # δ = 1e-10, outside at δ = 1e-6
    phi = zoo.identity_channel(3)
    trace_map = ch.complement(phi)
    for delta, ok in ((1e-10, True), (1e-6, False)):
        near = ch.KrausChannel.from_kraus([(1.0 + delta) * a for a in trace_map.kraus])
        assert ch.verify_degrading(phi, near).ok is ok, delta
    with pytest.raises(TypeError):
        ch.verify_degrading(phi, trace_map, tol=1.0)


def test_verify_degrading_rejects_wrong_map():
    phi = zoo.random_channel(2, 2, 2, seed=11)
    wrong = zoo.random_channel(2, 2, 2, seed=12)  # wrong output dimension story
    rep = ch.verify_degrading(phi, wrong)
    assert not rep.ok


# ---------------------------------------------------------------------------
# JSON wire format
# ---------------------------------------------------------------------------

def test_channel_json_round_trip():
    phi = zoo.random_channel(3, 2, 4, seed=13)
    data = ch.channel_to_json(phi)
    back = ch.channel_from_json(data)
    assert ch.choi_distance(phi, back) < 1e-14
    assert back.d_in == 3 and back.d_out == 2


def test_channel_from_json_validates_by_default():
    phi = zoo.random_channel(2, 2, 2, seed=14)
    data = ch.channel_to_json(phi)
    data["kraus"][0] = [[[10.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [10.0, 0.0]]]
    with pytest.raises(ch.ChannelValidationError):
        ch.channel_from_json(data)
    loose = ch.channel_from_json(data, validate=False)
    assert loose.d_in == 2


def test_channel_from_json_rejects_malformed():
    for bad in ({}, {"d_in": 2, "d_out": 2}, {"d_in": 2, "d_out": 2, "kraus": "x"}):
        with pytest.raises(ValueError):
            ch.channel_from_json(bad)
