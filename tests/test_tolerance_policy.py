"""The tolerance policy of ``cptwb.linalg``: one rank cutoff applied the same
way everywhere, and no per-call overrides of the cutoffs."""

import inspect
import math

import numpy as np
import pytest

from cptwb import channels as chan
from cptwb import decompose as dec
from cptwb import entropy
from cptwb import linalg as la
from cptwb import optimize as opt
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


@pytest.mark.parametrize("low, accepted", [(-8e-13, False), (-4e-13, True)])
def test_one_psd_floor_for_choi_matrices_and_states(low, accepted, monkeypatch):
    # The floor is -PSD_CLAMP times the largest eigenvalue, here -5e-13.  An
    # absolute floor of -PSD_CLAMP * max(top, 1) = -1e-12 would pass -8e-13.
    m = np.diag([0.5, 0.5, 0.0, low])
    choi = chan.ChoiMatrix(d_in=2, d_out=2, matrix=m)
    readers = {
        "choi_to_kraus": lambda: len(chan.choi_to_kraus(choi)),
        "choi_rank": lambda: chan.choi_rank(choi),
        "horn_vectors": lambda: len(dec.horn_vectors(m)),
        "psd_eigvals": lambda: list(la.psd_eigvals(m)),
    }
    if accepted:
        got = {name: read() for name, read in readers.items()}
        assert got == {
            "choi_to_kraus": 2,
            "choi_rank": 2,
            "horn_vectors": 4,
            "psd_eigvals": [0.5, 0.5, 0.0, 0.0],
        }
    else:
        for read in readers.values():
            with pytest.raises(la.NotPSDError):
                read()
    # validate_cpt reports against the same floor instead of raising
    monkeypatch.setattr(chan, "kraus_to_choi", lambda ch: choi)
    rep = chan.validate_cpt(zoo.identity_channel(2))
    assert rep.choi_psd is accepted and rep.min_choi_eigval == low


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
TOL_ALLOWED = {"validate_cpt", "verify_ar4", "verify_degrading"}


def test_no_public_function_takes_a_cutoff_override():
    offenders = []
    for mod in (la, chan, dec, entropy, opt, zoo):
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
