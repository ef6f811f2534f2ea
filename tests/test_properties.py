"""Property tests of the rank-bounded decompositions and of the Choi–Kraus
correspondence over random inputs.

Inputs are drawn from seeded numpy generators whose seeds, sizes, ranks and
scales come from ``hypothesis``; ``derandomize=True`` fixes the examples, so
the suite stays deterministic.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cptwb import channels as chan
from cptwb import decompose as dec
from cptwb import linalg as la
from cptwb import zoo
from cptwb._rng import random_pure_state

PROPERTY = settings(derandomize=True, max_examples=60, deadline=None, database=None)

seeds = st.integers(0, 2**32 - 1)
scales = st.sampled_from([1e-3, 1.0, 1e3])


def _ginibre(rng, rows, cols):
    return rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))


@st.composite
def block_psd(draw):
    """(A, d1): a PSD 2×2-block matrix of any rank from 1 to 2·d1."""
    d1 = draw(st.integers(1, 6))
    rank = draw(st.integers(1, 2 * d1))
    g = _ginibre(np.random.default_rng(draw(seeds)), 2 * d1, rank)
    return draw(scales) * (g @ g.conj().T), d1


@st.composite
def density(draw):
    """A density matrix of any dimension from 1 to 8 and any rank."""
    d = draw(st.integers(1, 8))
    g = _ginibre(np.random.default_rng(draw(seeds)), d, draw(st.integers(1, d)))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


@PROPERTY
@given(block_psd())
def test_szarek_halves_average_to_the_input_and_keep_its_blocks(case):
    a, d1 = case
    scale = np.abs(a).max()
    h = la.check_hermitian(a)
    split = dec.szarek_split(a, d1=d1)
    assert np.abs(0.5 * (split.terms[0] + split.terms[1]) - a).max() <= 1e-9 * scale
    for term, x in zip(split.terms, split.factors):
        # the diagonal blocks are those of the symmetrized input, bit for bit
        assert np.array_equal(term[:d1, :d1], h[:d1, :d1])
        assert np.array_equal(term[d1:, d1:], h[d1:, d1:])
        la.psd_eigvals(term, what="split term")  # raises unless PSD
        assert la.numerical_rank(term) <= d1
        assert np.abs(term - x @ x.conj().T).max() <= 1e-9 * scale


@PROPERTY
@given(density())
def test_horn_vectors_are_unit_vectors_that_rebuild_the_input(rho):
    xs = dec.horn_vectors(rho)
    assert len(xs) == len(rho)
    assert max(abs(np.linalg.norm(x) - 1.0) for x in xs) <= 1e-10
    rebuilt = sum(np.outer(x, x.conj()) for x in xs) / len(xs)
    assert np.abs(rebuilt - rho).max() <= 1e-10


@PROPERTY
@given(block_psd(), seeds)
def test_szarek_split_still_rejects_non_hermitian_and_non_psd_input(case, seed):
    a, d1 = case
    rng = np.random.default_rng(seed)
    skew = 1e-6 * np.abs(a).max() * _ginibre(rng, 2 * d1, 2 * d1)
    with pytest.raises(la.NotHermitianError):
        dec.szarek_split(a + skew, d1=d1)
    w = np.linalg.eigvalsh(a)
    shifted = a - (w[0] + 0.1 * w[-1]) * np.eye(2 * d1)  # lowest eigenvalue -0.1 top
    with pytest.raises(la.NotPSDError):
        dec.szarek_split(shifted, d1=d1)


@PROPERTY
@given(density(), seeds)
def test_horn_vectors_still_rejects_non_hermitian_and_non_psd_input(rho, seed):
    d = len(rho)
    rng = np.random.default_rng(seed)
    if d > 1:
        skew = 1e-6 * _ginibre(rng, d, d)
        np.fill_diagonal(skew, 0.0)  # keeps the trace at 1
        with pytest.raises(la.NotHermitianError):
            dec.horn_vectors(rho + skew)
    # trace 1, one eigenvalue at -0.25
    q, _ = np.linalg.qr(_ginibre(rng, d + 1, d + 1))
    spectrum = np.zeros(d + 1)
    spectrum[:2] = 1.25, -0.25
    with pytest.raises(la.NotPSDError):
        dec.horn_vectors((q * spectrum) @ q.conj().T)


@st.composite
def channel(draw):
    """(Φ, rank): a Haar-random channel with d_in, d_out = 1..4 and any number
    of Kraus operators, sometimes with its first operator split in two equal
    halves (the same map from a non-minimal set), and its Choi rank."""
    d_in, d_out = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    k = draw(st.integers(-(-d_in // d_out), d_in * d_out + 2))
    phi = zoo.random_channel(d_in, d_out, k, seed=draw(seeds))
    if draw(st.booleans()):
        half = phi.kraus[0] / np.sqrt(2.0)
        phi = chan.KrausChannel(d_in, d_out, (half, half) + phi.kraus[1:])
    return phi, min(k, d_in * d_out)


@PROPERTY
@given(channel())
def test_choi_kraus_round_trip_gives_a_minimal_set_of_the_same_map(case):
    phi, rank = case
    j = chan.kraus_to_choi(phi)
    back = chan.choi_to_kraus(j)
    assert len(back) == rank == chan.choi_rank(j) == chan.classify(phi).choi_rank
    assert np.abs(chan.kraus_to_choi(back).matrix - j.matrix).max() <= 1e-10
    assert chan.validate_cpt(back).ok


def _padded(w, n):
    out = np.zeros(n)
    out[: len(w)] = w
    return out


@PROPERTY
@given(channel(), seeds)
def test_complement_outputs_share_the_channel_output_spectrum(case, seed):
    phi, rank = case
    psi = random_pure_state(phi.d_in, np.random.default_rng(seed))
    rho = np.outer(psi, psi.conj())
    w = la.psd_eigvals(chan.apply(phi, rho), what="output")
    for kraus in (phi, chan.choi_to_kraus(chan.kraus_to_choi(phi))):
        comp = chan.complement(kraus)
        assert comp.d_out == len(kraus) and chan.validate_cpt(comp).ok
        w_env = la.psd_eigvals(chan.apply(comp, rho), what="environment output")
        n = max(len(w), len(w_env))
        assert np.abs(_padded(w, n) - _padded(w_env, n)).max() <= 1e-10


def _choi_readers(phi, other) -> dict:
    """The result of each reader of ``phi``'s cached Choi analysis and
    transfer matrix, in a form ``==`` compares bit for bit."""
    x = np.arange(phi.d_out**2).reshape(phi.d_out, phi.d_out) * (1.0 - 0.5j)
    return {
        "validate_cpt": lambda: chan.validate_cpt(phi),
        "choi_rank": lambda: chan.choi_rank(phi),
        "choi_rank_of_choi": lambda: chan.choi_rank(phi.choi),
        "classify": lambda: chan.classify(phi),
        "choi_to_kraus": lambda: [a.tobytes() for a in chan.choi_to_kraus(phi.choi).kraus],
        "choi_distance": lambda: chan.choi_distance(phi, other),
        "apply_adjoint": lambda: chan.apply_adjoint(phi, x).tobytes(),
    }


@PROPERTY
@given(channel(), seeds)
def test_the_cached_choi_analysis_is_invisible(case, seed):
    phi, _ = case
    other = zoo.random_channel(phi.d_in, phi.d_out, phi.d_in, seed=seed)
    sources = [np.array(a) for a in phi.kraus]  # writable
    reused = chan.KrausChannel(phi.d_in, phi.d_out, tuple(sources))
    readers = _choi_readers(reused, other)
    first = {name: read() for name, read in readers.items()}
    again = {name: read() for name, read in reversed(readers.items())}
    assert again == first
    # a fresh object, read in the other order, gives the same bits
    fresh = _choi_readers(chan.KrausChannel(phi.d_in, phi.d_out, phi.kraus), other)
    assert {name: read() for name, read in reversed(fresh.items())} == first

    # the channel copied its operators: changing the sources changes nothing
    for a in sources:
        a += 1.0
    assert all(np.array_equal(a, b) for a, b in zip(reused.kraus, phi.kraus))
    assert {name: read() for name, read in readers.items()} == first

    # what it caches is built once and read-only
    assert reused.transfer is reused.transfer
    for arr in (reused.kraus[0], reused.choi.matrix, *reused.choi.spectrum, reused.transfer):
        with pytest.raises(ValueError, match="read-only"):
            arr.flat[0] = 0.0
