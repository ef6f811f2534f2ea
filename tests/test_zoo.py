"""Tests for the channel catalogue: closed-form actions, spectra, window
structure of the shift families, and the ChannelSpec JSON builders."""

import numpy as np
import pytest

from cptwb import channels as chan
from cptwb import linalg as la
from cptwb import zoo
from cptwb._rng import haar_unitary, random_density, random_pure_state, rng_from


def _spec_instances():
    """One representative ChannelSpec per catalogue family."""
    return [
        zoo.ChannelSpec("identity", d=3),
        zoo.ChannelSpec("depolarizing", d=2),
        zoo.ChannelSpec("werner_holevo", d=4),
        zoo.ChannelSpec("depolarized_wh", d=3, x=0.25),
        zoo.ChannelSpec("fss_psi"),
        zoo.ChannelSpec("shift_subunitary", d=4, seed=7),
        zoo.ChannelSpec("qubit_generalized_extreme", alpha=[0.3, 0.8], seed=1),
        zoo.ChannelSpec("near_depolarizing", d=3, epsilon=1e-3, seed=2),
    ]


def test_every_family_builds_a_valid_channel():
    seen = set()
    for spec in _spec_instances():
        phi = spec.build()
        rep = chan.validate_cpt(phi)
        assert rep.ok, f"{spec.family}: {rep.messages}"
        seen.add(spec.family)
    assert seen == set(zoo.FAMILIES)


# ---------------------------------------------------------------------------
# identity / depolarizing
# ---------------------------------------------------------------------------

def test_identity_channel_acts_trivially():
    rng = np.random.default_rng(30)
    phi = zoo.identity_channel(4)
    rho = random_density(4, rng)
    assert np.abs(chan.apply(phi, rho) - rho).max() < 1e-14


def test_depolarizing_flattens_everything():
    rng = np.random.default_rng(31)
    phi = zoo.depolarizing(3)
    for _ in range(5):
        rho = random_density(3, rng)
        assert np.abs(chan.apply(phi, rho) - np.eye(3) / 3).max() < 1e-12


# ---------------------------------------------------------------------------
# Werner-Holevo family
# ---------------------------------------------------------------------------

def test_wh_action_formula():
    # (Tr(rho) I - rho^T) / (d - 1) on arbitrary inputs
    rng = np.random.default_rng(32)
    for d in (2, 3, 4, 5):
        phi = zoo.werner_holevo(d)
        rho = random_density(d, rng)
        want = (np.eye(d) - rho.T) / (d - 1)
        assert np.abs(chan.apply(phi, rho) - want).max() < 1e-12


def test_wh_kraus_count_and_choi_rank():
    for d in (2, 3, 4):
        phi = zoo.werner_holevo(d)
        assert len(phi) == d * (d - 1) // 2
        assert chan.choi_rank(phi) == d * (d - 1) // 2


def test_wh_pure_outputs_are_flat_on_a_hyperplane():
    # a pure input maps to (I - conj(psi) conj(psi)^†)/(d-1): eigenvalue
    # 1/(d-1) with multiplicity d-1 and a single zero
    rng = np.random.default_rng(33)
    for d in (3, 4, 5):
        phi = zoo.werner_holevo(d)
        psi = random_pure_state(d, rng)
        out = chan.apply(phi, np.outer(psi, psi.conj()))
        want = (np.eye(d) - np.outer(psi.conj(), psi)) / (d - 1)
        assert np.abs(out - want).max() < 1e-12
        w = la.psd_eigvals(out, what="output")
        assert np.abs(w[: d - 1] - 1.0 / (d - 1)).max() < 1e-12
        assert w[-1] < 1e-12


def test_mix_with_identity_endpoints_and_linearity():
    phi = zoo.werner_holevo(3)
    assert zoo.mix_with_identity(phi, 0.0) is phi
    ident = zoo.mix_with_identity(phi, 1.0)
    j_id = chan.kraus_to_choi(zoo.identity_channel(3)).matrix
    assert np.abs(chan.kraus_to_choi(ident).matrix - j_id).max() < 1e-12
    x = 0.3
    mixed = zoo.mix_with_identity(phi, x)
    j = chan.kraus_to_choi(mixed).matrix
    want = x * j_id + (1 - x) * chan.kraus_to_choi(phi).matrix
    assert np.abs(j - want).max() < 1e-12
    with pytest.raises(ValueError):
        zoo.mix_with_identity(phi, 1.5)


def test_depolarized_wh_action():
    rng = np.random.default_rng(34)
    d, x = 3, 0.4
    phi = zoo.depolarized_wh(d, x)
    rho = random_density(d, rng)
    want = x * rho + (1 - x) * (np.eye(d) - rho.T) / (d - 1)
    assert np.abs(chan.apply(phi, rho) - want).max() < 1e-12


# ---------------------------------------------------------------------------
# the transpose-shift channel at d = 3
# ---------------------------------------------------------------------------

def test_fss_action_formula():
    rng = np.random.default_rng(35)
    phi = zoo.fss_psi()
    for _ in range(10):
        rho = random_density(3, rng)
        want = (np.eye(3) + rho - rho.T) / 3.0
        assert np.abs(chan.apply(phi, rho) - want).max() < 1e-13


def test_fss_fixes_real_states():
    rng = np.random.default_rng(36)
    phi = zoo.fss_psi()
    for _ in range(10):
        g = rng.normal(size=(3, 3))
        rho = g @ g.T
        rho /= np.trace(rho)
        assert np.abs(chan.apply(phi, rho) - np.eye(3) / 3).max() < 1e-13


def test_fss_spectrum_on_coherent_pair():
    phi = zoo.fss_psi()
    psi = np.array([1.0, 1.0j, 0.0]) / np.sqrt(2)
    out = chan.apply(phi, np.outer(psi, psi.conj()))
    w = la.psd_eigvals(out, what="output")
    assert np.abs(w - np.array([2 / 3, 1 / 3, 0.0])).max() < 1e-12


def test_fss_matches_depolarized_wh_third():
    assert chan.choi_distance(zoo.fss_psi(), zoo.depolarized_wh(3, 1 / 3)) < 1e-12


# ---------------------------------------------------------------------------
# shift-conjugated sub-unitary channels
# ---------------------------------------------------------------------------

def test_cyclic_shift_is_a_cyclic_permutation():
    x = zoo.cyclic_shift(4)
    e0 = np.zeros(4)
    e0[0] = 1.0
    v = e0
    for _ in range(4):
        v = x @ v
    assert np.abs(v - e0).max() < 1e-14
    assert np.abs(x @ x @ x @ x - np.eye(4)).max() < 1e-14


def test_shift_subunitary_swap_block_spectrum():
    # d = 3 with every block the swap [[0,1],[1,0]]: the uniform
    # superposition comes out with spectrum (2/3, 1/6, 1/6)
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    phi = zoo.shift_subunitary(3, [swap, swap, swap])
    assert chan.validate_cpt(phi).ok
    psi = np.ones(3) / np.sqrt(3)
    w = la.psd_eigvals(chan.apply(phi, np.outer(psi, psi)), what="output")
    assert np.abs(w - np.array([2 / 3, 1 / 6, 1 / 6])).max() < 1e-10


def test_shift_subunitary_rotation_block_gives_wh3():
    rot = np.array([[0.0, 1.0], [-1.0, 0.0]])
    phi = zoo.shift_subunitary(3, [rot, rot, rot])
    assert chan.choi_distance(phi, zoo.werner_holevo(3)) < 1e-12


def test_shift_subunitary_window_support():
    # the k-th Kraus operator must vanish on coordinate k (row and column)
    rng = rng_from(37)
    d = 4
    mats = [haar_unitary(d - 1, rng) for _ in range(d)]
    phi = zoo.shift_subunitary(d, mats)
    assert chan.validate_cpt(phi).ok
    assert chan.choi_rank(phi) <= d
    for k, a in enumerate(phi.kraus):
        missing = (k - 1) % d  # the coordinate outside window k
        assert np.abs(a[missing, :]).max() < 1e-14
        assert np.abs(a[:, missing]).max() < 1e-14


def test_shift_subunitary_rejects_non_unitary():
    with pytest.raises(ValueError):
        zoo.shift_subunitary(3, [np.eye(2), np.eye(2), 2 * np.eye(2)])
    with pytest.raises(ValueError):
        zoo.shift_subunitary(3, [np.eye(2)] * 2)


def test_cycle_window_unitaries_d4():
    cycles = [(1, 2, 3), (1, 3, 4), (1, 4, 2), (2, 4, 3)]
    mats = zoo.cycle_window_unitaries(4, cycles)
    assert len(mats) == 4
    for m in mats:
        assert np.abs(m.conj().T @ m - np.eye(3)).max() < 1e-14
        # a 3-cycle has order 3
        assert np.abs(np.linalg.matrix_power(m, 3) - np.eye(3)).max() < 1e-14
    phi = zoo.shift_subunitary(4, mats)
    assert chan.validate_cpt(phi).ok
    assert chan.choi_rank(phi) == 4


def test_cycle_window_unitaries_rejects_bad_sets():
    with pytest.raises(ValueError):
        zoo.cycle_window_unitaries(4, [(1, 2, 3)] * 4)  # same window 4 times
    with pytest.raises(ValueError):
        zoo.cycle_window_unitaries(4, [(1, 2, 3), (1, 3, 4), (1, 4, 2)])
    with pytest.raises(ValueError):
        zoo.cycle_window_unitaries(
            4, [(1, 2, 5), (1, 3, 4), (1, 4, 2), (2, 4, 3)]
        )


# ---------------------------------------------------------------------------
# two-Kraus qubit-input channels
# ---------------------------------------------------------------------------

def test_qubit_generalized_extreme_defaults():
    phi = zoo.qubit_generalized_extreme([0.4, 0.9])
    assert (phi.d_in, phi.d_out) == (2, 2)
    assert chan.validate_cpt(phi).ok
    assert chan.choi_rank(phi) <= 2
    assert chan.is_generalized_extreme(phi)


def test_qubit_generalized_extreme_larger_output():
    rng = rng_from(38)
    v = haar_unitary(4, rng)[:, :2]
    w = haar_unitary(4, rng)[:, :2]
    phi = zoo.qubit_generalized_extreme([0.2, 0.7], v=v, w=w)
    assert (phi.d_in, phi.d_out) == (2, 4)
    assert chan.validate_cpt(phi).ok
    assert chan.is_generalized_extreme(phi)


def test_qubit_generalized_extreme_rejects_bad_input():
    with pytest.raises(ValueError):
        zoo.qubit_generalized_extreme([0.5, 1.5])
    with pytest.raises(ValueError):
        zoo.qubit_generalized_extreme([0.5, 0.5], u=np.ones((2, 2)))


# ---------------------------------------------------------------------------
# random and near-depolarizing families
# ---------------------------------------------------------------------------

def test_random_channel_is_cpt_and_seeded():
    a = zoo.random_channel(3, 2, 4, seed=9)
    b = zoo.random_channel(3, 2, 4, seed=9)
    c = zoo.random_channel(3, 2, 4, seed=10)
    assert chan.validate_cpt(a).ok
    assert len(a) == 4
    assert chan.choi_distance(a, b) == 0.0
    assert chan.choi_distance(a, c) > 1e-3


def test_near_depolarizing_stays_within_budget():
    rng = np.random.default_rng(39)
    eps = 1e-3
    phi, info = zoo.near_depolarizing(3, eps, seed=4, return_info=True)
    assert chan.validate_cpt(phi).ok
    assert not info["exact_depolarizing"]
    # the mixing weight is calibrated so probe deviations land at eps/2
    assert abs(info["delta"] * info["probe_max_deviation"] - 0.5 * eps) < 1e-15
    # fresh probe states, not the calibration set
    for _ in range(50):
        rho = random_density(3, rng)
        dev = np.abs(chan.apply(phi, rho) - np.eye(3) / 3).max()
        assert dev <= eps * 1.5


def test_near_depolarizing_zero_epsilon_is_exact():
    phi = zoo.near_depolarizing(2, 0.0, seed=5)
    assert chan.choi_distance(phi, zoo.depolarizing(2)) < 1e-12


# ---------------------------------------------------------------------------
# ChannelSpec plumbing
# ---------------------------------------------------------------------------

def test_channel_spec_rejects_unknown_family():
    with pytest.raises(ValueError):
        zoo.ChannelSpec("teleporter", d=3)
    with pytest.raises(ValueError):
        zoo.ChannelSpec.from_json({"family": ["identity"], "params": {"d": 3}})


@pytest.mark.parametrize(
    "family, params",
    [
        ("identity", {}),  # missing d
        ("identity", {"d": None}),
        ("identity", {"d": 3.7}),
        ("identity", {"d": True}),
        ("identity", {"d": 3, "x": 0.5}),  # identity takes no x
        ("identity", {"d": 3, "family": "depolarizing"}),
        ("depolarized_wh", {"d": 3, "x": "0.5"}),
        ("qubit_generalized_extreme", {"alpha": [0.3]}),
        ("shift_subunitary", {"d": 4, "cycles": 5}),
    ],
)
def test_channel_spec_rejects_malformed_params(family, params):
    with pytest.raises(ValueError):
        zoo.ChannelSpec(family, **params)


@pytest.mark.parametrize(
    "cycles",
    [[1, 2, 3], [["a", "b"], [1, 3], [2, 3]], [[1.5, 2], [1, 3], [2, 3]], [[1, 2], None, [2, 3]]],
)
def test_channel_spec_cycles_are_lists_of_integers(cycles):
    # refused by the spec, before the builder would raise a TypeError
    with pytest.raises(ValueError, match="shift_subunitary parameter 'cycles': expected a"):
        zoo.ChannelSpec("shift_subunitary", d=3, cycles=cycles)
    spec = zoo.ChannelSpec("shift_subunitary", d=3, cycles=((1, 2), [1.0, 3], [2, 3]))
    assert spec.params["cycles"] == [[1, 2], [1, 3], [2, 3]]
    want = zoo.shift_subunitary(3, zoo.cycle_window_unitaries(3, [(1, 2), (1, 3), (2, 3)]))
    assert chan.choi_distance(spec.build(), want) == 0.0


def test_channel_spec_rejects_negative_mixing_weight():
    spec = zoo.ChannelSpec("near_depolarizing", d=3, epsilon=1e-3, x=-0.5)
    with pytest.raises(ValueError):
        spec.build()


def test_channel_spec_coerces_integral_numbers():
    spec = zoo.ChannelSpec("near_depolarizing", d=3.0, epsilon=1, seed=np.int64(2))
    assert spec.params == {"d": 3, "epsilon": 1.0, "seed": 2}
    assert [type(v) for v in spec.params.values()] == [int, float, int]
    want = zoo.ChannelSpec("near_depolarizing", d=3, epsilon=1.0, seed=2).build()
    assert chan.choi_distance(spec.build(), want) == 0.0


def test_channel_spec_json_round_trip():
    for spec in _spec_instances():
        back = zoo.ChannelSpec.from_json(spec.to_json())
        assert back.family == spec.family
        assert chan.choi_distance(back.build(), spec.build()) < 1e-14


def test_channel_spec_explicit_unitaries():
    mats = zoo.cycle_window_unitaries(
        4, [(1, 2, 3), (1, 3, 4), (1, 4, 2), (2, 4, 3)]
    )
    spec = zoo.ChannelSpec(
        "shift_subunitary",
        d=4,
        unitaries=[la.matrix_to_json(m) for m in mats],
    )
    phi = spec.build()
    assert chan.choi_distance(phi, zoo.shift_subunitary(4, mats)) < 1e-14


def _json(m):
    return la.matrix_to_json(np.asarray(m, dtype=complex))


_BLOCKS = zoo.cycle_window_unitaries(4, [(1, 2, 3), (1, 3, 4), (1, 4, 2), (2, 4, 3)])
_ISOMETRY = haar_unitary(3, rng_from(41))[:, :2]  # v or w with three output rows


@pytest.mark.parametrize(
    "family, params, why",
    [
        ("shift_subunitary", {"d": 4, "unitaries": [_json(m) for m in _BLOCKS],
                              "cycles": [[1, 2, 3], [1, 3, 4], [1, 4, 2], [2, 4, 3]]},
         "'cycles' is unused with 'unitaries'"),
        ("shift_subunitary", {"d": 4, "unitaries": [_json(m) for m in _BLOCKS], "seed": 3},
         "'seed' is unused with 'unitaries'"),
        ("shift_subunitary", {"d": 4, "cycles": [[1, 2, 3], [1, 3, 4], [1, 4, 2], [2, 4, 3]],
                              "seed": 3}, "'seed' is unused with 'cycles'"),
        ("qubit_generalized_extreme", {"alpha": [0.3, 0.8], "seed": 3, "v": _json(_ISOMETRY)},
         "'seed' is unused with 'v'"),
        ("qubit_generalized_extreme", {"alpha": [0.3, 0.8], "w": _json(_ISOMETRY)},
         "'w' needs 'v'"),
        ("qubit_generalized_extreme", {"alpha": [0.3, 0.8], "d_out": 2, "v": _json(_ISOMETRY)},
         "d_out = 2, but v has 3 rows"),
    ],
    ids=["unitaries-and-cycles", "unitaries-and-seed", "cycles-and-seed", "v-and-seed",
         "w-without-v", "d_out-against-v"],
)
def test_channel_spec_refuses_parameters_its_builder_would_drop(family, params, why):
    with pytest.raises(ValueError, match=why):
        zoo.ChannelSpec(family, **params).build()


def test_qubit_spec_honours_every_parameter_it_takes():
    # u on the seeded path: v and w are drawn from the seed as before
    u = haar_unitary(2, rng_from(40))
    spec = zoo.ChannelSpec("qubit_generalized_extreme", alpha=[0.3, 0.8], seed=1, d_out=3,
                           u=_json(u))
    rng = rng_from(1)
    v, w = (haar_unitary(3, rng)[:, :2] for _ in range(2))
    want = zoo.qubit_generalized_extreme([0.3, 0.8], u=u, v=v, w=w)
    assert chan.choi_distance(spec.build(), want) == 0.0
    assert chan.choi_distance(want, zoo.qubit_generalized_extreme([0.3, 0.8], v=v, w=w)) > 0.1
    # a d_out that agrees with v's rows is taken
    spec = zoo.ChannelSpec("qubit_generalized_extreme", alpha=[0.3, 0.8], d_out=3,
                           v=_json(_ISOMETRY))
    want = zoo.qubit_generalized_extreme([0.3, 0.8], v=_ISOMETRY)
    assert chan.choi_distance(spec.build(), want) == 0.0


def test_channel_spec_from_json_rejects_garbage():
    with pytest.raises(ValueError):
        zoo.ChannelSpec.from_json({"params": {"d": 2}})
    with pytest.raises(ValueError):
        zoo.ChannelSpec.from_json({"family": "identity", "params": [3]})
