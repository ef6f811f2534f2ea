"""The tolerance policy of ``cptwb.linalg``: one rank cutoff applied the same
way everywhere, and no per-call overrides of the cutoffs."""

import inspect
import math

import numpy as np

from cptwb import channels as chan
from cptwb import decompose as dec
from cptwb import entropy
from cptwb import linalg as la
from cptwb import zoo


def test_rank_cutoff_is_strict_and_the_same_everywhere():
    # A diagonal input has exact eigen- and singular values: `at` is
    # RANK_TOL × top to the bit and `above` is the next float up.  The
    # spectrum sums to exactly 1, so renyi's normalization moves no bit.
    top = 0.9999999800000003
    at = la.RANK_TOL * top
    above = np.nextafter(at, 1.0)
    m = np.diag([at, top, 0.0, above])
    assert la.psd_eigvals(m).sum() == 1.0
    assert list(la.psd_eigvals(m)) == [top, above, at, 0.0]

    choi = chan.ChoiMatrix(d_in=2, d_out=2, matrix=m)
    assert chan.choi_rank(choi) == 2
    assert len(chan.choi_to_kraus(choi)) == 2
    assert la.numerical_rank(m) == 2
    assert la.trace_power(m, 0.0) == 2.0  # Tr m^0 counts the support
    assert entropy.renyi(m, 0) == math.log(2)


#: Cutoff overrides that were removed; no public function may take them.
REMOVED = {
    "rank_tol",
    "clamp",
    "max_dev",
    "support_tol",
    "proxy_p",
    "probe_samples",
    "max_halvings",
}

#: The verifiers whose ``tol`` stays a parameter (see the linalg docstring).
TOL_ALLOWED = {"validate_cpt", "channel_from_json", "verify_ar4", "verify_degrading"}


def test_no_public_function_takes_a_cutoff_override():
    offenders = []
    for mod in (la, chan, dec, entropy, zoo):
        for name, fn in vars(mod).items():
            if name.startswith("_") or not inspect.isfunction(fn):
                continue
            if fn.__module__ != mod.__name__:
                continue
            params = set(inspect.signature(fn).parameters)
            if name not in TOL_ALLOWED:
                params &= REMOVED | {"tol"}
            else:
                params &= REMOVED
            offenders += [f"{mod.__name__}.{name}({p})" for p in sorted(params)]
    assert offenders == []
