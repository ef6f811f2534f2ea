"""Property tests of the rank-bounded decompositions over random inputs.

Inputs are drawn from seeded numpy generators whose seeds, sizes, ranks and
scales come from ``hypothesis``; ``derandomize=True`` fixes the examples, so
the suite stays deterministic.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cptwb import decompose as dec
from cptwb import linalg as la

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
