"""The closed forms of the acceptance tests, recomputed at 50 digits.

Each float constant the acceptance tests compare against is checked against
an ``mpmath`` value derived from the spectrum it comes from, and the
workbench's own float computation of that spectrum is checked against the
same value.
"""

import math

import numpy as np
from mpmath import mp, mpf

from cptwb import channels as chan
from cptwb import entropy
from cptwb import optimize as opt
from cptwb import zoo

#: 50-digit agreement between two derivations of one closed form
DIGITS_50 = mpf(10) ** -48


def _ulps(x: float, exact) -> float:
    """Distance from a float to a 50-digit value, in units of the float's spacing."""
    return float(abs(mpf(x) - exact) / mpf(float(np.spacing(x))))


def test_wh3_entangled_trace_power_is_43_over_10368():
    # (W⊗W)(ββ†) has spectrum {1/3, 1/12 (8 times)}, so Tr[·]^5 = 1/243 + 8/12^5
    with mp.workdps(50):
        exact = mpf(1) / 3**5 + 8 * (mpf(1) / 12) ** 5
        assert abs(exact - mpf(43) / 10368) < DIGITS_50
        assert 43.0 / 10368.0 == float(exact)  # correctly rounded
        ww = chan.tensor(zoo.werner_holevo(3), zoo.werner_holevo(3))
        beta = np.eye(3, dtype=np.complex128).reshape(-1) / np.sqrt(3)
        computed = opt.output_trace_power(ww, beta, 5.0)
        assert abs(mpf(computed) - exact) <= 1e-13 * exact


def test_wh3_product_trace_power_is_4_to_the_minus_4():
    # a pure input gives WH3 the output spectrum {1/2, 1/2, 0}: ν_5^5 = 1/16
    with mp.workdps(50):
        single = 2 * (mpf(1) / 2) ** 5
        exact = single**2
        assert exact == mpf(4) ** -4
        assert 4.0**-4 == float(exact)  # a power of two: exact in binary
        e0 = np.array([1.0, 0.0, 0.0], dtype=np.complex128)
        computed = opt.output_trace_power(zoo.werner_holevo(3), e0, 5.0)
        assert abs(mpf(computed) - single) <= 1e-13 * single


def test_fss_minimal_output_entropy_is_log3_minus_two_thirds_log2():
    # at the argmin (1, i, 0)/√2 the FSS output spectrum is {2/3, 1/3, 0}
    with mp.workdps(50):
        p, q = mpf(2) / 3, mpf(1) / 3
        exact = -p * mp.log(p) - q * mp.log(q)
        assert abs(exact - (mp.log(3) - mpf(2) / 3 * mp.log(2))) < DIGITS_50
        assert _ulps(math.log(3) - (2.0 / 3.0) * math.log(2), exact) <= 2.0
        psi = np.array([1.0, 1.0j, 0.0]) / np.sqrt(2)
        out = chan.apply(zoo.fss_psi(), np.outer(psi, psi.conj()))
        assert abs(mpf(entropy.von_neumann(out)) - exact) <= 1e-13 * exact
