"""Tests for the vector averaging of density matrices (the DFT frame) and
the two-term block split."""

import numpy as np
import pytest

from cptwb import channels as chan
from cptwb import decompose as dec
from cptwb import linalg as la
from cptwb import zoo
from cptwb._rng import random_density, rng_from


def _random_block_psd(d1, rng, rank=None):
    n = 2 * d1
    r = n if rank is None else rank
    g = rng.normal(size=(n, r)) + 1j * rng.normal(size=(n, r))
    return g @ g.conj().T


# ---------------------------------------------------------------------------
# averages of rank-one projectors
# ---------------------------------------------------------------------------

def test_horn_vectors_reconstruct():
    rng = np.random.default_rng(61)
    for trial in range(20):
        d = int(rng.integers(2, 9))
        rho = random_density(d, rng)
        xs = dec.horn_vectors(rho)
        assert len(xs) == d
        acc = sum(np.outer(x, x.conj()) for x in xs) / d
        assert np.abs(acc - rho).max() < 1e-10
        for x in xs:
            assert abs(np.linalg.norm(x) - 1.0) < 1e-10


def test_horn_vectors_maximally_mixed_gives_orthonormal_basis():
    xs = dec.horn_vectors(np.eye(4) / 4)
    g = np.array([[np.vdot(a, b) for b in xs] for a in xs])
    assert np.abs(g - np.eye(4)).max() < 1e-10


def test_horn_vectors_pure_state_gives_copies():
    psi = np.array([1.0, 1.0j, 0.0]) / np.sqrt(2)
    xs = dec.horn_vectors(np.outer(psi, psi.conj()))
    for x in xs:
        assert abs(abs(np.vdot(x, psi)) - 1.0) < 1e-10


def test_horn_vectors_on_a_diagonal_input_is_the_dft_frame():
    # eigenvalues in descending order keep Q the identity, so x_m[j] is
    # √w_j·e^{2πi·jm/d}; d = 1 gives the one vector (1)
    for d in range(1, 9):
        w = np.arange(d, 0, -1.0) ** 2
        w /= w.sum()
        xs = dec.horn_vectors(np.diag(w))
        j = np.arange(d)
        for m, x in enumerate(xs):
            want = np.sqrt(w) * np.exp(2j * np.pi * (j * m % d) / d)
            assert np.abs(x - want).max() <= 1e-15


def test_horn_vectors_at_every_rank():
    rng = rng_from(67)
    for d in range(2, 9):
        for rank in range(1, d + 1):
            rho = random_density(d, rng, rank=rank)
            xs = dec.horn_vectors(rho)
            assert len(xs) == d
            acc = sum(np.outer(x, x.conj()) for x in xs) / d
            assert np.abs(acc - rho).max() < 1e-14
            assert max(abs(np.linalg.norm(x) - 1.0) for x in xs) < 1e-14


def test_horn_vectors_pure_input_gives_identical_vectors():
    # only the top eigenvalue is nonzero, so every x_m is its eigenvector
    # times F_0m = 1: the same vector d times
    for d in range(2, 9):
        psi = np.zeros(d, dtype=complex)
        psi[d // 2] = np.exp(0.3j)
        xs = dec.horn_vectors(np.outer(psi, psi.conj()))
        assert all(np.array_equal(x, xs[0]) for x in xs)
        assert abs(abs(np.vdot(xs[0], psi)) - 1.0) < 1e-15


def test_horn_vectors_rejects_bad_trace_and_negativity():
    with pytest.raises(ValueError):
        dec.horn_vectors(np.eye(3))
    with pytest.raises(la.NotPSDError):
        dec.horn_vectors(np.diag([1.2, -0.2]))


def test_horn_vectors_trace_bound_is_trace_tol():
    assert dec.TRACE_TOL == 1e-8
    rho = np.diag([0.5, 0.3, 0.2])
    # the message names the bound and shows the trace to its last digit
    with pytest.raises(ValueError, match=r"TRACE_TOL = 1e-08, got 1\.00000002$"):
        dec.horn_vectors(rho * (1 + 2e-8))
    assert len(dec.horn_vectors(rho * (1 + 5e-9))) == 3


def test_horn_vectors_of_an_empty_matrix_is_a_trace_error():
    with pytest.raises(ValueError, match="needs trace 1 .*, got 0.0"):
        dec.horn_vectors(np.zeros((0, 0)))


def test_the_dft_matrix_is_cached_read_only():
    for d in range(1, 10):
        f = dec._dft(d)
        assert f is dec._dft(d)
        assert not f.flags.writeable
        with pytest.raises(ValueError):
            f[0, 0] = 0.0
        jm = np.outer(np.arange(d), np.arange(d)) % d
        assert np.abs(f - np.exp(2j * np.pi * jm / d)).max() < 1e-15


def test_writing_a_horn_vector_moves_no_other_output():
    rho = random_density(4, rng_from(33), rank=3)
    xs = dec.horn_vectors(rho)
    before = [x.copy() for x in xs]
    xs[0][:] = 7.0
    assert all(np.array_equal(x, y) for x, y in zip(xs[1:], before[1:]))
    assert all(np.array_equal(x, y) for x, y in zip(dec.horn_vectors(rho), before))


# ---------------------------------------------------------------------------
# two-term block split
# ---------------------------------------------------------------------------

def test_szarek_split_scalar_blocks():
    # d1 = 1: A = [[1, c], [c, 1]]/2 splits into two rank-one halves with
    # off-diagonal phases e^{±iθ}, cos θ = c
    c = 0.6
    a = np.array([[1.0, c], [c, 1.0]]) / 2.0
    d = dec.szarek_split(a, d1=1)
    mix = 0.5 * (d.terms[0] + d.terms[1])
    assert np.abs(mix - a).max() < 1e-12
    for term in d.terms:
        assert la.numerical_rank(term) == 1
        assert abs(term[0, 0] - 0.5) < 1e-12 and abs(term[1, 1] - 0.5) < 1e-12
        assert abs(abs(term[0, 1]) - 0.5) < 1e-12


def test_szarek_split_random_blocks():
    rng = np.random.default_rng(63)
    for trial in range(30):
        d1 = int(rng.integers(1, 7))
        rank = int(rng.integers(1, 2 * d1 + 1))
        a = _random_block_psd(d1, rng, rank=rank)
        d = dec.szarek_split(a, d1)
        mix = 0.5 * (d.terms[0] + d.terms[1])
        scale = max(np.abs(a).max(), 1.0)
        assert np.abs(mix - a).max() < 1e-9 * scale
        for term, x in zip(d.terms, d.factors):
            assert la.numerical_rank(term) <= d1
            # each term is the Gram matrix of its factor
            assert np.abs(term - x @ x.conj().T).max() < 1e-9 * scale
            # diagonal blocks are preserved exactly up to roundoff
            assert np.abs(term[:d1, :d1] - a[:d1, :d1]).max() < 1e-9 * scale
            assert np.abs(term[d1:, d1:] - a[d1:, d1:]).max() < 1e-9 * scale
            # PSD halves
            la.psd_eigvals(term, what="szarek term")


def _count_checks_and_eigensolves(monkeypatch):
    """Record every Hermiticity check and every eigensolve, in order: an
    ``eigh`` by its shape, a values-only ``eigvalsh`` as ("eigvalsh", shape)."""
    checks, eighs = [], []
    herm, eigh, eigvalsh = la._hermitian_part, np.linalg.eigh, np.linalg.eigvalsh
    monkeypatch.setattr(la, "_hermitian_part", lambda a, what: checks.append(what) or herm(a, what))
    monkeypatch.setattr(np.linalg, "eigh", lambda a: eighs.append(a.shape) or eigh(a))
    monkeypatch.setattr(
        np.linalg, "eigvalsh", lambda a: eighs.append(("eigvalsh", a.shape)) or eigvalsh(a)
    )
    return checks, eighs


def test_szarek_split_makes_three_eigensolves(monkeypatch):
    # the PSD gate on A reads eigenvalues only, then one stacked spectrum of
    # both diagonal blocks; the blocks and the terms are exactly Hermitian
    # once A is symmetrized, so nothing after the input is checked again
    checks, eighs = _count_checks_and_eigensolves(monkeypatch)
    a = _random_block_psd(3, np.random.default_rng(30))
    dec.szarek_split(a, d1=3)
    assert checks == ["block matrix"]
    assert eighs == [("eigvalsh", (6, 6)), (2, 3, 3)]


def test_horn_vectors_checks_once_and_decomposes_once(monkeypatch):
    checks, eighs = _count_checks_and_eigensolves(monkeypatch)
    dec.horn_vectors(random_density(5, rng_from(32), rank=3))
    assert len(checks) == 1
    assert eighs == [(5, 5)]


def test_szarek_split_flags_support_mismatch():
    # coupling through a numerically dead direction of A11 cannot be
    # balanced; the split must refuse rather than produce junk
    a = np.array(
        [
            [1.0, 0.0, 0.0, 0.0],
            [0.0, 1e-20, 1e-7, 0.0],
            [0.0, 1e-7, 1.0, 0.0],
            [0.0, 0.0, 0.0, 1.0],
        ]
    )
    with pytest.raises(ValueError):
        dec.szarek_split(a, d1=2)


def test_szarek_split_clamps_the_blocks_against_the_floor_of_a():
    # the second diagonal block, diag(0, -4e-13), has top 0 and so a floor of
    # its own of -0; A's floor is -PSD_CLAMP·0.5 = -5e-13, and by interlacing
    # no block eigenvalue lies below A's least one
    for low in (-4e-13, -8e-13):
        for diag in ((0.5, 0.5, 0.0, low), (0.5, 0.0, 0.5, low)):
            a = np.diag(diag)
            if low < la._psd_floor(0.5):
                with pytest.raises(la.NotPSDError):
                    dec.szarek_split(a, d1=2)
                continue
            d = dec.szarek_split(a, d1=2)
            assert np.abs(0.5 * (d.terms[0] + d.terms[1]) - a).max() < 1e-15


def test_szarek_split_shape_errors():
    with pytest.raises(la.ShapeError):
        dec.szarek_split(np.eye(6), d1=2)


@pytest.mark.parametrize("d1", [0, 1.5, True])
def test_szarek_split_rejects_a_d1_that_is_not_a_positive_integer(d1, monkeypatch):
    # refused before any eigensolve, whatever the matrix
    _, eighs = _count_checks_and_eigensolves(monkeypatch)
    with pytest.raises(ValueError, match="positive integer"):
        dec.szarek_split(np.zeros((0, 0)) if d1 == 0 else np.eye(2), d1=d1)
    assert eighs == []


# ---------------------------------------------------------------------------
# Choi-level split
# ---------------------------------------------------------------------------

def test_szarek_split_choi_halves_are_channels():
    for seed in (1, 2, 3):
        phi = zoo.random_channel(3, 2, 5, seed=seed)
        j = chan.kraus_to_choi(phi)
        h1, h2 = dec.szarek_split_choi(j)
        for h in (h1, h2):
            assert chan.choi_rank(h) <= 3
            half = chan.choi_to_kraus(h)
            rep = chan.validate_cpt(half)
            assert rep.ok, rep.messages
        mix = 0.5 * (h1.matrix + h2.matrix)
        assert np.abs(mix - j.matrix).max() < 1e-9


def test_szarek_split_choi_rejects_non_qubit_output():
    j = chan.kraus_to_choi(zoo.identity_channel(3))
    with pytest.raises(la.ShapeError):
        dec.szarek_split_choi(j)


# ---------------------------------------------------------------------------
# combined-form verification
# ---------------------------------------------------------------------------

def test_verify_ar4_on_block_factors():
    rng = np.random.default_rng(64)
    d1 = 3
    a = _random_block_psd(d1, rng)
    d = dec.szarek_split(a, d1)
    rep = dec.verify_ar4(a, d.factors, rank_bound=d1)
    assert rep.ok
    assert rep.reconstruction_residual < 1e-9
    assert all(r <= d1 for r in rep.ranks)


def test_verify_ar4_flags_corruption():
    rng = np.random.default_rng(65)
    d1 = 2
    a = _random_block_psd(d1, rng)
    d = dec.szarek_split(a, d1)
    bad = list(d.factors)
    bad[0] = bad[0] + 0.05
    rep = dec.verify_ar4(a, bad, rank_bound=d1)
    assert not rep.ok


def _dft_grid(b):
    """A = (I₃/3) ⊗ B and its factors X_m = f_m ⊗ B^{1/2}, f_m column m of
    the unitary DFT matrix F₃/√3: a d2 = 3 grid of blocks B/3."""
    f = np.exp(2j * np.pi * np.outer(range(3), range(3)) / 3) / np.sqrt(3)
    root = la.psd_power(b, 0.5)
    return np.kron(np.eye(3) / 3, b), [np.kron(f[:, [m]], root) for m in range(3)]


def test_verify_ar4_on_a_three_block_grid():
    # Σ_m f_m f_m† = I₃ gives A = (1/3) Σ_m X_m X_m†, and each X_m X_m† has
    # diagonal blocks B/3, which sum to M = B; the grid is the first leg
    b = random_density(2, rng_from(68))
    a, facs = _dft_grid(b)
    rep = dec.verify_ar4(a, facs, rank_bound=2)
    assert rep.ok and rep.ranks == (2, 2, 2)
    with pytest.raises(la.ShapeError):  # the factors fix a 6×6 grid
        dec.verify_ar4(a[:4, :4], facs, rank_bound=2)
    # with the legs swapped, A's 2×2 diagonal blocks no longer sum to B
    assert not dec.verify_ar4(np.kron(b, np.eye(3) / 3), facs, rank_bound=2).ok
    # scaling X_1's first block by 1.5 moves that block of X_1 X_1† by
    # 1.25·B/3, so term 1 alone misses M
    bad = list(facs)
    bad[1] = facs[1].copy()
    bad[1][:2] *= 1.5
    rep = dec.verify_ar4(a, bad, rank_bound=2)
    assert not rep.ok
    assert abs(rep.term_residuals[1] - 1.25 * np.abs(b).max() / 3) < 1e-15
    assert rep.term_residuals[0] <= 1e-15 and rep.term_residuals[2] <= 1e-15


def test_verify_ar4_checks_one_fixed_bound():
    # scaling every factor by 1 + δ moves the reconstruction by about 2δ
    # times A's largest entry: inside AR4_TOL = 1e-8 at δ = 1e-10, outside
    # at δ = 1e-6
    a, facs = _dft_grid(random_density(2, rng_from(68)))
    for delta, ok in ((1e-10, True), (1e-6, False)):
        assert dec.verify_ar4(a, [(1.0 + delta) * x for x in facs], rank_bound=2).ok is ok, delta
    with pytest.raises(TypeError):
        dec.verify_ar4(a, facs, rank_bound=2, tol=1.0)
