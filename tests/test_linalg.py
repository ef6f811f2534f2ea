"""Tests for the dense Hermitian kernel: decompositions, pseudo-powers,
partial traces, and the two trace inequalities the optimizer relies on."""

import math

import numpy as np
import pytest

from cptwb import decompose, linalg as la


def _random_hermitian(d, rng):
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return (g + g.conj().T) / 2.0


def _random_psd(d, rng, rank=None):
    k = d if rank is None else rank
    g = rng.normal(size=(d, k)) + 1j * rng.normal(size=(d, k))
    return g @ g.conj().T


# ---------------------------------------------------------------------------
# basics
# ---------------------------------------------------------------------------

def test_as_matrix_rejects_non_2d():
    with pytest.raises(la.ShapeError):
        la.as_matrix(np.zeros(3))
    with pytest.raises(la.ShapeError):
        la.as_matrix(np.zeros((2, 2, 2)))


def test_check_hermitian_symmetrizes_exactly():
    rng = np.random.default_rng(0)
    m = _random_hermitian(4, rng) + 1e-14 * rng.normal(size=(4, 4))
    h = la.check_hermitian(m)
    assert np.array_equal(h, h.conj().T)


def test_check_hermitian_raises_on_skew():
    with pytest.raises(la.NotHermitianError):
        la.check_hermitian([[0.0, 1.0], [-1.0, 0.0]])


def test_herm_eig_descending_and_canonical():
    rng = np.random.default_rng(1)
    for _ in range(20):
        m = _random_hermitian(5, rng)
        w, v = la.herm_eig(m)
        assert np.all(np.diff(w) <= 1e-12)
        assert np.abs(m @ v - v * w).max() < 1e-10
        # canonical phase: first significant component positive real
        for j in range(5):
            col = v[:, j]
            idx = np.argmax(np.abs(col) > 1e-12 * np.abs(col).max())
            assert col[idx].real > 0
            assert abs(col[idx].imag) < 1e-10


def test_herm_eig_of_an_empty_matrix_is_empty():
    w, v = la.herm_eig(np.zeros((0, 0)))
    assert w.shape == (0,) and v.shape == (0, 0)


def test_herm_eig_deterministic():
    rng = np.random.default_rng(2)
    m = _random_hermitian(6, rng)
    w1, v1 = la.herm_eig(m)
    w2, v2 = la.herm_eig(m.copy())
    assert np.array_equal(w1, w2)
    assert np.array_equal(v1, v2)


def test_psd_eigvals_clamps_and_raises():
    w = la.psd_eigvals(np.diag([1.0, -1e-14]))
    assert np.all(w >= 0)
    with pytest.raises(la.NotPSDError):
        la.psd_eigvals(np.diag([1.0, -1e-6]))


# ---------------------------------------------------------------------------
# pseudo-powers
# ---------------------------------------------------------------------------

def test_psd_power_inverse_on_support():
    rng = np.random.default_rng(3)
    m = _random_psd(5, rng, rank=3)
    inv = la.psd_power(m, -1.0)
    proj = la.psd_power(m, 0.0)
    assert np.abs(inv @ m - proj).max() < 1e-8
    # kernel stays kernel for negative exponents
    assert np.abs(inv @ (np.eye(5) - proj)).max() < 1e-8


def test_psd_power_half_squares_back():
    rng = np.random.default_rng(4)
    m = _random_psd(4, rng)
    r = la.psd_power(m, 0.5)
    assert np.abs(r @ r - m).max() < 1e-8 * np.abs(m).max()


def test_psd_power_support_projector():
    m = np.diag([2.0, 1.0, 0.0])
    p = la.psd_power(m, 0.0)
    assert np.abs(p - np.diag([1.0, 1.0, 0.0])).max() < 1e-12


def test_trace_power_drops_kernel():
    # eigenvalue 1e-30 sits far below the relative cutoff and must not
    # contribute, even for negative-ish exponents via schatten_p
    m = np.diag([1.0, 1e-30])
    assert abs(la.trace_power(m, 0.5) - 1.0) < 1e-12
    assert abs(la.schatten_p(m, 0.5) - 1.0) < 1e-12


def test_schatten_p_matches_closed_form():
    m = np.diag([0.5, 0.5, 0.0])
    assert abs(la.schatten_p(m, 2.0) - 2.0 ** -0.5) < 1e-14
    assert abs(la.schatten_p(m, 5.0) - 2.0 ** ((1 - 5) / 5)) < 1e-14


def test_schatten_p_rejects_nonpositive_p():
    with pytest.raises(ValueError):
        la.schatten_p(np.eye(2), 0.0)


def test_schatten_p_rejects_an_order_whose_reciprocal_overflows():
    m = np.diag([0.5, 0.5])
    with pytest.raises(ValueError, match="1/p, got 1e-320"):
        la.schatten_p(m, 1e-320)
    # (2 * 0.5^p)^(1/p) = 2^(1/p - 1)
    assert la.schatten_p(m, 1e-3) == pytest.approx(2.0**999, rel=1e-9)


@pytest.mark.parametrize("p", [float("inf"), -float("inf"), float("nan")])
def test_non_finite_orders_are_rejected(p):
    # the ∞-norm of diag(0.5, 0.5) is 0.5, yet (Tr m^p)^(1/p) would read 1.0
    m = np.diag([0.5, 0.5])
    with pytest.raises(ValueError, match=f"schatten_p .*{p}"):
        la.schatten_p(m, p)
    with pytest.raises(ValueError, match=f"trace_power .*{p}"):
        la.trace_power(m, p)


# ---------------------------------------------------------------------------
# tensor helpers
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "read",
    [
        la.check_hermitian,
        la.herm_eig,
        la.psd_eigvals,
        lambda m: la.psd_power(m, 0.5),
        lambda m: la.trace_power(m, 2.0),
        la.numerical_rank,
        decompose.horn_vectors,
    ],
    ids=["check_hermitian", "herm_eig", "psd_eigvals", "psd_power", "trace_power",
         "numerical_rank", "horn_vectors"],
)
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
def test_non_finite_matrices_are_rejected(read, bad):
    # before any subtraction, so no RuntimeWarning fires either
    m = np.diag([bad, 1.0]).astype(np.complex128)
    with pytest.raises(ValueError, match="non-finite"):
        read(m)


def test_entries_near_the_largest_double_do_not_overflow():
    # the check and the symmetrization work on a/2 and a†/2: no RuntimeWarning
    assert np.array_equal(la.psd_eigvals(np.diag([1e308, 1.0])), [1e308, 1.0])
    with pytest.raises(la.NotHermitianError):
        la.check_hermitian([[1e308 + 1e308j, 0.0], [0.0, 1.0]])


def test_symmetrization_is_the_half_sum_to_the_last_bit():
    rng = np.random.default_rng(9)
    for d in (1, 2, 5, 9):
        h = _random_hermitian(d, rng)
        a = h + 1e-14 * _random_hermitian(d, rng) * 1j  # within HERM_TOL
        for m in (a, np.asfortranarray(a), a.T.conj()):
            got = la.check_hermitian(m)
            assert got.tobytes() == ((m + m.conj().T) / 2.0).tobytes()


# ---------------------------------------------------------------------------
# the eigensolve wrappers act on each matrix of a stack alone
# ---------------------------------------------------------------------------

def _layouts(stack):
    """A stack ``(k, d, d)`` C-ordered, Fortran-ordered and as the
    conjugate transposes of its matrices (a strided view)."""
    return [
        np.ascontiguousarray(stack),
        np.asfortranarray(stack),
        stack.conj().swapaxes(-1, -2),
    ]


def _bits(x):
    return np.ascontiguousarray(x).tobytes()


def _psd_stacks(rng):
    """Stacks of four PSD matrices of rank 1, ⌈d/2⌉ and d, d = 1..9, in each
    layout: rank-deficient ones have eigenvalues just below zero."""
    for d in range(1, 10):
        mats = [_random_psd(d, rng, rank=r) for r in (1, (d + 1) // 2, d, 1)]
        yield from _layouts(np.array(mats))


def test_stacked_hermitian_part_is_each_matrix_alone():
    rng = np.random.default_rng(40)
    for d in range(1, 10):
        # within HERM_TOL of Hermitian, so the symmetrization moves bits
        mats = np.array([_random_hermitian(d, rng) for _ in range(8)])
        for stack in _layouts(mats[:4] + 1e-14j * mats[4:]):
            got = la._hermitian_part(stack, "m")
            for i, m in enumerate(stack):
                assert _bits(got[i]) == _bits(la._hermitian_part(m, "m"))


def test_stacked_psd_clamp_is_each_spectrum_alone():
    rng = np.random.default_rng(41)
    negative = 0
    for stack in _psd_stacks(rng):
        spectra = np.linalg.eigvalsh(stack)
        negative += int((spectra[:, 0] < 0.0).sum())
        for w in (spectra, np.asfortranarray(spectra)):
            for top in (None, 2.0 * spectra.max()):
                got = la._psd_clamp(w.copy(order="K"), "m", top)
                for i, row in enumerate(w):
                    assert _bits(got[i]) == _bits(la._psd_clamp(row.copy(), "m", top))
    assert negative > 20  # the clamp had work to do


def test_stacked_canonical_phases_is_each_matrix_alone():
    rng = np.random.default_rng(42)
    for stack in _psd_stacks(rng):
        _, v = np.linalg.eigh(stack)
        for vecs in (v, v[..., ::-1], v[..., :1]) + tuple(_layouts(v)[1:]):
            got = la._canonical_phases(vecs)
            for i, m in enumerate(vecs):
                assert _bits(got[i]) == _bits(la._canonical_phases(m))


def _raised(f, *args):
    with pytest.raises(ValueError) as info:
        f(*args)
    return type(info.value), str(info.value)


@pytest.mark.parametrize("fault", ["non-finite", "non-Hermitian"])
def test_a_faulty_matrix_raises_in_a_stack_as_alone(fault):
    rng = np.random.default_rng(43)
    for d in range(1, 10):
        mats = np.array([_random_hermitian(d, rng) for _ in range(4)])
        if fault == "non-finite":
            mats[2, d - 1, 0] = np.inf
        else:
            mats[2, d - 1, 0] += 1e-9 * (1 + 1j)  # skew for d = 1
        for stack in _layouts(mats):
            alone = _raised(la._hermitian_part, stack[2], "m")
            kind = ValueError if fault == "non-finite" else la.NotHermitianError
            assert alone[0] is kind
            assert _raised(la._hermitian_part, stack, "m") == alone


def test_a_non_psd_spectrum_raises_in_a_stack_as_alone():
    rng = np.random.default_rng(44)
    for stack in _psd_stacks(rng):
        spectra = np.linalg.eigvalsh(stack)
        spectra[2, 0] = -1e-6 * spectra[2, -1]
        for top in (None, spectra[2, -1]):
            alone = _raised(la._psd_clamp, spectra[2].copy(), "m", top)
            assert alone[0] is la.NotPSDError
            assert _raised(la._psd_clamp, spectra.copy(), "m", top) == alone


def test_partial_trace_both_legs():
    rng = np.random.default_rng(5)
    a = _random_psd(2, rng)
    b = _random_psd(3, rng)
    m = la.kron(a, b)
    assert np.abs(la.partial_trace(m, (2, 3), keep=0) - a * np.trace(b)).max() < 1e-10
    assert np.abs(la.partial_trace(m, (2, 3), keep=1) - b * np.trace(a)).max() < 1e-10


def test_partial_trace_shape_errors():
    with pytest.raises(la.ShapeError):
        la.partial_trace(np.eye(5), (2, 3), keep=0)
    with pytest.raises(ValueError):
        la.partial_trace(np.eye(6), (2, 3), keep=2)


def test_numerical_rank():
    assert la.numerical_rank(np.diag([1.0, 1e-3, 1e-12])) == 2
    assert la.numerical_rank(np.zeros((3, 3))) == 0


# ---------------------------------------------------------------------------
# JSON wire format
# ---------------------------------------------------------------------------

def test_matrix_json_round_trip():
    rng = np.random.default_rng(6)
    m = rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4))
    back = la.matrix_from_json(la.matrix_to_json(m))
    assert np.array_equal(back, m)


def test_matrix_from_json_rejects_garbage():
    # json.load gives true as True (an int) and NaN/Infinity as floats
    for bad in (
        [], [[1.0]], [[[1.0]]], [[[1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]],
        [[[True, 0.0]]], [[[1.0, False]]], [[[math.nan, 0.0]]], [[[math.inf, 0.0]]],
        [[[0.0, -math.inf]]],
    ):
        with pytest.raises(ValueError):
            la.matrix_from_json(bad)


# ---------------------------------------------------------------------------
# trace inequalities (backbone of the fixed-point monotonicity proof)
# ---------------------------------------------------------------------------

def test_lieb_thirring_inequality():
    """Tr (B^{1/2} A B^{1/2})^p <= Tr A^p B^p for p >= 1, reversed on (0,1)."""
    rng = np.random.default_rng(7)
    for trial in range(50):
        d = int(rng.integers(2, 6))
        a = _random_psd(d, rng)
        b = _random_psd(d, rng)
        rb = la.psd_power(b, 0.5)
        inner = rb @ a @ rb
        for p in (1.0, 1.7, 2.0, 3.0, 5.0):
            lhs = la.trace_power(inner, p)
            rhs = np.trace(la.psd_power(a, p) @ la.psd_power(b, p)).real
            assert lhs <= rhs + 1e-8 * max(abs(rhs), 1.0)
        for p in (0.3, 0.5, 0.9):
            lhs = la.trace_power(inner, p)
            rhs = np.trace(la.psd_power(a, p) @ la.psd_power(b, p)).real
            assert lhs >= rhs - 1e-8 * max(abs(rhs), 1.0)


def test_klein_inequality():
    """Tr A^p - Tr B^p >= p Tr (A - B) B^{p-1} for p > 1, reversed for p < 1.

    B is kept full rank so B^{p-1} needs no kernel convention.
    """
    rng = np.random.default_rng(8)
    for trial in range(50):
        d = int(rng.integers(2, 6))
        a = _random_psd(d, rng)
        b = _random_psd(d, rng) + 0.05 * np.eye(d)
        for p in (1.5, 2.0, 3.0, 4.5):
            lhs = la.trace_power(a, p) - la.trace_power(b, p)
            rhs = p * np.trace((a - b) @ la.psd_power(b, p - 1.0)).real
            assert lhs >= rhs - 1e-7 * max(abs(rhs), 1.0)
        for p in (0.3, 0.6, 0.9):
            lhs = la.trace_power(a, p) - la.trace_power(b, p)
            rhs = p * np.trace((a - b) @ la.psd_power(b, p - 1.0)).real
            assert lhs <= rhs + 1e-7 * max(abs(rhs), 1.0)
