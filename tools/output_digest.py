"""Print one SHA-256 digest per area of cptwb's outputs.

Usage: ``python tools/output_digest.py [--src DIR]``

Imports ``cptwb`` from ``DIR`` (default: the ``src`` directory of this
checkout), runs a fixed, seeded set of calls per area and prints one line
``AREA SHA256`` per area.  The digest covers every field of every report,
bit for bit: floats and arrays by their bytes, dataclasses field by field,
so two trees that print the same lines computed the same outputs.  Run it
on two checkouts to show that a change kept every output.  The bits depend
on the BLAS build, so compare lines from one machine only.  Exits 2 when
``DIR`` holds no ``cptwb`` package.

Areas:

* ``wh3_scan``: the default WH3 ``mult_scan`` over 4.5–5.0 at seeds 0 and
  7919;
* ``wh3_answers``: only what those two scans decide: each row's p,
  ``violated``, ``decided_by``, ``nu_product_lb`` and
  ``product_of_singles``, and each scan's threshold, bracket and
  ``placed_by``.  A search change that keeps the answers keeps this line
  while ``wh3_scan``, which covers every field, moves;
* ``survey``: ``estimate_nu_p`` with 25 restarts on twelve seeded
  ``random_channel``s at p ∈ {0.1, 0.5, 1.5, 5};
* ``decompose``: ``horn_vectors`` (d = 1..8) and ``szarek_split``
  (d1 = 1..6) on seeded inputs of every rank, and ``szarek_split_choi``;
* ``channels``: Choi round trips, complement output spectra,
  ``perturb_to_extreme`` and ``classify``;
* ``entropy``: ``min_output_rank`` on the d = 4 cycle-window channel at 4
  seeds;
* ``linalg``: ``herm_eig``, ``psd_power`` and ``psd_eigvals`` on seeded
  matrices, d = 1..9.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import importlib
import struct
import sys
from pathlib import Path

import numpy as np

_SRC = Path(__file__).resolve().parents[1] / "src"

#: the d = 4 cycle-window channel's cycles, as ``perfbench`` builds it
_CYCLES = [(1, 2, 3), (1, 3, 4), (1, 4, 2), (2, 4, 3)]
#: the (d_in, d_out) pairs of the Choi round trips
_DIMS = [(a, b) for a in (2, 3, 4) for b in (2, 3, 4)]


def _feed(h, x) -> None:
    """Feed ``x`` into the hash ``h``, type-tagged and bit-exact."""
    if dataclasses.is_dataclass(x) and not isinstance(x, type):
        h.update(b"D" + type(x).__name__.encode())
        for f in dataclasses.fields(x):
            h.update(f.name.encode())
            _feed(h, getattr(x, f.name))
    elif isinstance(x, dict):
        h.update(b"M%d" % len(x))
        for k in sorted(x, key=repr):
            _feed(h, k)
            _feed(h, x[k])
    elif isinstance(x, (list, tuple)):
        h.update(b"L%d" % len(x))
        for item in x:
            _feed(h, item)
    elif isinstance(x, (np.ndarray, np.generic)):
        a = np.ascontiguousarray(x)
        h.update(b"A" + a.dtype.str.encode() + repr(a.shape).encode())
        h.update(a.tobytes())
    elif isinstance(x, float):
        h.update(b"F" + struct.pack("<d", x))
    elif x is None or isinstance(x, (bool, int, str)):
        h.update(b"S" + repr(x).encode())
    else:
        raise TypeError(f"cannot digest a {type(x).__name__}")


def digest(x) -> str:
    """SHA-256 of ``x``: nested dataclasses, dicts, sequences, arrays and
    scalars, every float and array by its bytes."""
    h = hashlib.sha256()
    _feed(h, x)
    return h.hexdigest()


def _density(rng, d: int, rank: int) -> np.ndarray:
    g = rng.normal(size=(d, rank)) + 1j * rng.normal(size=(d, rank))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def _unitary(rng, d: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


@functools.lru_cache(maxsize=1)  # wh3_answers reads the same two scans
def area_wh3_scan(cptwb):
    opt, zoo = cptwb.optimize, cptwb.zoo
    wh3 = zoo.werner_holevo(3)
    return [
        opt.mult_scan(wh3, wh3, (4.5, 5.0), opt.OptimizerConfig(seed=s), resolution=0.01)
        for s in (0, 7919)
    ]


def area_wh3_answers(cptwb):
    return [
        (
            [(r.p, r.violated, r.decided_by, r.nu_product_lb, r.product_of_singles)
             for r in scan.rows],
            scan.threshold,
            scan.bracket,
            scan.placed_by,
        )
        for scan in area_wh3_scan(cptwb)
    ]


def area_survey(cptwb):
    opt, zoo = cptwb.optimize, cptwb.zoo
    cfg = opt.OptimizerConfig(restarts=25)
    out = []
    for s in range(12):
        ch = zoo.random_channel(2 + s % 3, 2 + (s // 3) % 3, 2 + s % 4, seed=700 + s)
        out.extend(opt.estimate_nu_p(ch, p, cfg) for p in (0.1, 0.5, 1.5, 5.0))
    return out


def area_decompose(cptwb):
    dec, zoo = cptwb.decompose, cptwb.zoo
    rng = np.random.default_rng(29)
    out = []
    for d in range(1, 9):
        for rank in list(range(1, d + 1)) * 4:
            out.append(dec.horn_vectors(_density(rng, d, rank)))
    for d1 in range(1, 7):
        for rank in list(range(1, 2 * d1 + 1)) * 4:
            g = rng.normal(size=(2 * d1, rank)) + 1j * rng.normal(size=(2 * d1, rank))
            a = g @ g.conj().T
            out.append(dec.szarek_split(a / np.abs(a).max(), d1))
    for d_in in (1, 2, 3):
        for k in range(-(-d_in // 2), 2 * d_in + 1):
            ch = zoo.random_channel(d_in, 2, k, seed=100 * d_in + k)
            out.append(dec.szarek_split_choi(ch.choi))
    return out


def area_channels(cptwb):
    chan, la, zoo = cptwb.channels, cptwb.linalg, cptwb.zoo
    rng = np.random.default_rng(30)
    out = []
    for d_in, d_out in _DIMS * 2:
        k = int(rng.integers(-(-d_in // d_out), d_in * d_out + 1))
        phi = zoo.random_channel(d_in, d_out, k, seed=int(rng.integers(2**32)))
        psi = rng.normal(size=d_in) + 1j * rng.normal(size=d_in)
        rho = np.outer(psi, psi.conj()) / np.vdot(psi, psi).real
        back = chan.choi_to_kraus(chan.kraus_to_choi(phi))
        comp = chan.complement(phi)
        out.append((
            back,
            comp,
            la.psd_eigvals(chan.apply(phi, rho)),
            la.psd_eigvals(chan.apply(comp, rho)),
            chan.classify(phi),
        ))
    for d in (2, 3, 2, 3, 2, 3):
        u1, u2 = _unitary(rng, d), _unitary(rng, d)
        mix = chan.KrausChannel.from_kraus([u1 / np.sqrt(2), u2 / np.sqrt(2)])
        res = chan.perturb_to_extreme(mix, epsilon0=0.1, seed=int(rng.integers(2**31)))
        out.append((res, chan.classify(mix), chan.classify(res.channel)))
    for ch in (zoo.werner_holevo(3), zoo.depolarizing(2), zoo.fss_psi()):
        out.append(chan.classify(ch))
    return out


def area_entropy(cptwb):
    entropy, opt, zoo = cptwb.entropy, cptwb.optimize, cptwb.zoo
    phi = zoo.ChannelSpec("shift_subunitary", d=4, cycles=_CYCLES).build()
    return [
        entropy.min_output_rank(phi, opt.OptimizerConfig(restarts=24, max_iters=400, seed=s))
        for s in (0, 1, 7919, 123456)
    ]


def area_linalg(cptwb):
    la = cptwb.linalg
    rng = np.random.default_rng(31)
    out = []
    for d in range(1, 10):
        for rank in (1, (d + 1) // 2, d):
            g = rng.normal(size=(d, rank)) + 1j * rng.normal(size=(d, rank))
            a = g @ g.conj().T
            out.append((la.herm_eig(a - np.trace(a).real / d * np.eye(d)),
                        la.psd_eigvals(a), la.psd_power(a, 0.5), la.psd_power(a, -1.0)))
    return out


AREAS = {
    "wh3_scan": area_wh3_scan,
    "wh3_answers": area_wh3_answers,
    "survey": area_survey,
    "decompose": area_decompose,
    "channels": area_channels,
    "entropy": area_entropy,
    "linalg": area_linalg,
}


def _import_cptwb(src: Path):
    """Import ``cptwb`` and its modules from ``src``."""
    sys.path.insert(0, str(src))
    pkg = importlib.import_module("cptwb")
    for name in ("channels", "decompose", "entropy", "linalg", "optimize", "zoo"):
        importlib.import_module(f"cptwb.{name}")
    return pkg


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", type=Path, default=_SRC,
                    help="directory holding the cptwb package (default: this checkout's src)")
    args = ap.parse_args(argv)
    if not (args.src / "cptwb" / "__init__.py").is_file():
        print(f"output_digest: no cptwb package in {args.src}", file=sys.stderr)
        return 2
    cptwb = _import_cptwb(args.src.resolve())
    for name, area in AREAS.items():
        print(f"{name} {digest(area(cptwb))}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
