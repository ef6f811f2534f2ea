"""The four benchmark workloads.

Each workload builds a fixed pool of inputs from the workload seed in
``setup`` (input generation), runs one operation per ``run(i)`` call
(cycling through the pool, so any run length works), and checks each
result in ``check``, outside the timed region.  What an operation is, and
why each workload exists, is written down in ``perfbench/README.md``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from dataclasses import replace

import numpy as np

from cptwb import channels as chan
from cptwb import decompose as dec
from cptwb import entropy
from cptwb import linalg as la
from cptwb import optimize as opt
from cptwb import zoo
from cptwb._rng import haar_unitary, random_pure_state

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
#: Trace files and scratch output, inside the checkout.
OUT_DIR = os.path.join(ROOT, ".perfbench")


def _beta(d: int) -> np.ndarray:
    """Maximally entangled unit vector on C^d ⊗ C^d."""
    return np.eye(d, dtype=np.complex128).reshape(-1) / np.sqrt(d)


def _sig(x: float) -> str:
    """The CLI's rendering of a float (12 significant digits)."""
    return format(float(x), ".12g")


class Workload:
    """Base class: ``setup`` builds inputs, ``run`` does one operation."""

    name = ""
    #: operations in the traced run; fixed so its counts compare across runs
    trace_ops = 1
    #: clock for latencies taken inside an operation; the end-to-end run
    #: swaps in one that stands still during reference slices
    now = staticmethod(time.perf_counter)

    def setup(self, seed: int):
        raise NotImplementedError

    def warm_up(self):
        """A small operation of the same kind: it loads and initialises what
        the real ones use, at a cost that does not depend on the seed."""
        raise NotImplementedError

    def run(self, i: int):
        raise NotImplementedError

    def check(self, i: int, result) -> str | None:
        """None when ``result`` of operation ``i`` is correct, else why not."""
        raise NotImplementedError

    def named(self, latencies_s) -> list[tuple]:
        """The workload's own end-to-end metrics as (name, value, unit)."""
        return []


_violations: list[int] = []


def _collect_violations():
    """Keep the monotonicity counts of every estimate_nu_p report.

    MultReport drops its inner reports, so wh3_scan wraps estimate_nu_p
    once per process: one extra Python call per report.
    """
    inner = opt.estimate_nu_p
    if getattr(inner, "collects_violations", False):
        return

    def collecting(*args, **kwargs):
        rep = inner(*args, **kwargs)
        _violations.append(rep.monotonicity_violations)
        return rep

    collecting.collects_violations = True
    collecting.__module__ = inner.__module__
    opt.estimate_nu_p = collecting


class WH3Scan(Workload):
    """Default-config multiplicativity scan of WH3 ⊗ WH3 over p in [4.5, 5]."""

    name = "wh3_scan"
    trace_ops = 1

    def setup(self, seed):
        self.wh3 = zoo.ChannelSpec("werner_holevo", d=3).build()
        self.ww = chan.tensor(self.wh3, self.wh3)
        self.cfg = opt.OptimizerConfig(seed=seed)
        self.beta_tp = opt.output_trace_power(self.ww, _beta(3), 5.0)
        _collect_violations()

    def warm_up(self):
        small = replace(self.cfg, restarts=2, tensor_restarts=2)
        opt.mult_check(self.wh3, self.wh3, 5.0, small)

    def run(self, i):
        _violations.clear()
        scan = opt.mult_scan(
            self.wh3, self.wh3, (4.5, 5.0), self.cfg, resolution=0.01
        )
        return scan, sum(_violations)

    def check(self, i, result):
        scan, violations = result
        if violations:
            return f"{violations} monotonicity violations"
        if scan.threshold is None or abs(scan.threshold - 4.79) > 0.02:
            return f"threshold {scan.threshold} not within 4.79 ± 0.02"
        at5 = [r for r in scan.rows if r.p == 5.0]
        if len(at5) != 1:
            return "no row at p = 5"
        r = at5[0]
        if abs(r.nu_product_lb**5 - 43.0 / 10368.0) > 1e-6:
            return f"nu_product_lb^5 = {r.nu_product_lb**5!r} != 43/10368"
        if abs(r.product_of_singles**5 - 4.0**-4) > 1e-6:
            return f"product_of_singles^5 = {r.product_of_singles**5!r} != 4^-4"
        if abs(self.beta_tp - 43.0 / 10368.0) > 1e-6:
            return f"Tr[(W⊗W)(ββ†)]^5 = {self.beta_tp!r} != 43/10368"
        return None

    def named(self, latencies_s):
        return [("scan_s", float(np.median(latencies_s)), "s")]


#: Rényi orders of the criterion-08 sweep.
SWEEP_P = (0.5, 1.5, 3.0, 5.0)
#: (d_in, d_out) pairs; every block of nine channels covers each pair once.
SWEEP_DIMS = [(a, b) for a in (2, 3, 4) for b in (2, 3, 4)]
SWEEP_BLOCKS = 24


class RandomSweep(Workload):
    """estimate_nu_p on seeded random channels, criterion-08 configuration.

    One operation is one block: nine channels, one of each (d_in, d_out)
    pair, at one order.  A single call's cost depends mostly on its shape,
    so the median of single calls jumps between shapes from run to run;
    the median of blocks does not.  Per-call latencies are kept for the
    printed ``estimate_ms_*`` metrics.
    """

    name = "random_sweep"
    trace_ops = 4  # 36 calls

    def setup(self, seed):
        rng = np.random.default_rng(seed)
        self.cfg = opt.OptimizerConfig(restarts=10, max_iters=300, seed=seed)
        # Kraus counts step through their range per (d_in, d_out) pair from
        # a seeded start, so a run's mix of k varies little with the seed.
        kraus_counts = [range(-(-a // b), a * b + 1) for a, b in SWEEP_DIMS]
        starts = [int(rng.integers(len(ks))) for ks in kraus_counts]
        blocks = []
        for b in range(SWEEP_BLOCKS):
            block = []
            for j in rng.permutation(len(SWEEP_DIMS)):
                d_in, d_out = SWEEP_DIMS[j]
                ks = kraus_counts[j]
                k = ks[(starts[j] + b) % len(ks)]
                block.append(
                    zoo.random_channel(d_in, d_out, k, seed=int(rng.integers(2**32)))
                )
            blocks.append(block)
        # Every block runs at every order, but pass r gives block b the order
        # SWEEP_P[(b + r) % 4]: a run that ends early has still seen as many
        # distinct channels as it could, and what it costs depends on them.
        n = len(SWEEP_P)
        self.ops = [
            (block, SWEEP_P[(b + r) % n])
            for r in range(n)
            for b, block in enumerate(blocks)
        ]
        self.call_latencies = []

    def warm_up(self):
        block, p = self.ops[0]
        opt.estimate_nu_p(block[0], p, replace(self.cfg, restarts=1, max_iters=5))

    def run(self, i):
        block, p = self.ops[i % len(self.ops)]
        reports = []
        for ch in block:
            t = self.now()
            reports.append(opt.estimate_nu_p(ch, p, self.cfg))
            self.call_latencies.append(self.now() - t)
        return reports

    def check(self, i, reports):
        block, p = self.ops[i % len(self.ops)]
        for ch, rep in zip(block, reports):
            if rep.monotonicity_violations:
                return f"{rep.monotonicity_violations} monotonicity violations"
            t = opt.output_trace_power(ch, rep.best_input, p)
            if abs(t - rep.best_trace_power) > 1e-12 * max(1.0, rep.best_trace_power):
                return f"best input gives {t!r}, report says {rep.best_trace_power!r}"
        return None

    def named(self, latencies_s):
        runs = len(latencies_s) * len(SWEEP_DIMS) * self.cfg.restarts
        calls = self.call_latencies[-len(latencies_s) * len(SWEEP_DIMS):]
        p50, tail, q = latency_summary(calls)
        return [
            ("runs_per_s", runs / sum(latencies_s), "1/s"),
            ("estimate_ms_p50", 1e3 * p50, "ms"),
            (f"estimate_ms_tail(p{q:.4g})", 1e3 * tail, "ms"),
        ]


#: The d = 4 cycle-window channel of acceptance criterion 15.
CYCLES = [(1, 2, 3), (1, 3, 4), (1, 4, 2), (2, 4, 3)]
#: One round of structure operations.  Decompositions get most of the time.
STRUCTURE_ROUND = (
    ["horn"] * 40 + ["szarek"] * 40 + ["choi"] * 8 + ["perturb"] * 4 + ["cycle"]
)
STRUCTURE_ROUNDS = 16


class StructureSweep(Workload):
    """Work outside the fixed-point loop: decompositions, Choi, extremality.

    One operation is one round of ``STRUCTURE_ROUND``: single items differ
    in cost by 100×, so their median would jump between item kinds.
    """

    name = "structure_sweep"
    trace_ops = 2 * STRUCTURE_ROUNDS  # the whole pool, twice

    def setup(self, seed):
        rng = np.random.default_rng(seed)
        self.cycle_channel = zoo.ChannelSpec(
            "shift_subunitary", d=4, cycles=CYCLES
        ).build()
        self.cycle_cfg = opt.OptimizerConfig(restarts=24, max_iters=400)
        self.rounds = [
            [
                (kind, getattr(self, f"_make_{kind}")(j, rng))
                for j, kind in enumerate(STRUCTURE_ROUND)
            ]
            for _ in range(STRUCTURE_ROUNDS)
        ]

    # Dimensions cycle through their range inside a round, so every round
    # has the same mix of sizes whatever the seed.
    @staticmethod
    def _make_horn(j, rng):
        d = 2 + j % 7
        rank = int(rng.integers(1, d + 1))
        g = rng.normal(size=(d, rank)) + 1j * rng.normal(size=(d, rank))
        rho = g @ g.conj().T
        return rho / np.trace(rho).real

    @staticmethod
    def _make_szarek(j, rng):
        d1 = 1 + j % 6
        rank = int(rng.integers(1, 2 * d1 + 1))  # rank-deficient cases too
        g = rng.normal(size=(2 * d1, rank)) + 1j * rng.normal(size=(2 * d1, rank))
        a = g @ g.conj().T
        return a / np.abs(a).max(), d1

    @staticmethod
    def _make_choi(j, rng):
        d_in, d_out = SWEEP_DIMS[j % len(SWEEP_DIMS)]
        k = int(rng.integers(-(-d_in // d_out), d_in * d_out + 1))
        phi = zoo.random_channel(d_in, d_out, k, seed=int(rng.integers(2**32)))
        psi = random_pure_state(d_in, rng)
        return phi, np.outer(psi, psi.conj())

    @staticmethod
    def _make_perturb(j, rng):
        d = 2 + j % 2
        u1, u2 = haar_unitary(d, rng), haar_unitary(d, rng)
        mix = chan.KrausChannel.from_kraus([u1 / np.sqrt(2), u2 / np.sqrt(2)])
        return mix, int(rng.integers(2**31))

    def _make_cycle(self, j, rng):
        # Each round searches from its own seed: what the search costs
        # depends on its seed, and a run should average over many.
        return replace(self.cycle_cfg, seed=int(rng.integers(2**31)))

    def warm_up(self):
        for kind in dict.fromkeys(STRUCTURE_ROUND):
            self._do(self.rounds[0][STRUCTURE_ROUND.index(kind)])

    def run(self, i):
        return [self._do(item) for item in self.rounds[i % len(self.rounds)]]

    def check(self, i, results):
        for item, result in zip(self.rounds[i % len(self.rounds)], results):
            why = self._check_item(item, result)
            if why is not None:
                return f"{item[0]}: {why}"
        return None

    def _do(self, item):
        kind, x = item
        if kind == "horn":
            return dec.horn_vectors(x)
        if kind == "szarek":
            a, d1 = x
            return dec.szarek_split(a, d1=d1)
        if kind == "choi":
            phi, rho = x
            back = chan.choi_to_kraus(chan.kraus_to_choi(phi))
            comp = chan.complement(phi)
            w1 = la.psd_eigvals(chan.apply(phi, rho), what="output")
            w2 = la.psd_eigvals(chan.apply(comp, rho), what="output")
            return back, w1, w2
        if kind == "perturb":
            mix, seed = x
            return chan.perturb_to_extreme(mix, epsilon0=0.1, seed=seed)
        phi = self.cycle_channel
        single_rank, _ = entropy.min_output_rank(phi, x)
        beta = _beta(4)
        out = chan.apply(chan.tensor(phi, phi), np.outer(beta, beta.conj()))
        return single_rank, la.numerical_rank(out)

    def _check_item(self, item, result):
        kind, x = item
        if kind == "horn":  # criterion 10
            acc = sum(np.outer(v, v.conj()) for v in result) / x.shape[0]
            worst = float(np.abs(acc - x).max())
            worst = max([worst] + [abs(np.linalg.norm(v) - 1.0) for v in result])
            return None if worst < 1e-10 else f"horn residual {worst:.3e}"
        if kind == "szarek":  # criterion 11
            a, d1 = x
            mid = 0.5 * (result.terms[0] + result.terms[1])
            if np.abs(mid - a).max() >= 1e-9:
                return "split halves do not average to the input"
            for term in result.terms:
                if la.numerical_rank(term) > d1:
                    return "split term rank exceeds d1"
                if (
                    np.abs(term[:d1, :d1] - a[:d1, :d1]).max() >= 1e-9
                    or np.abs(term[d1:, d1:] - a[d1:, d1:]).max() >= 1e-9
                ):
                    return "split term changed a diagonal block"
            return None
        if kind == "choi":  # Choi round trip and criterion 13
            phi, _ = x
            back, w1, w2 = result
            if chan.choi_distance(phi, back) >= 1e-10:
                return "Choi -> Kraus round trip moved the channel"
            if len(back) != chan.choi_rank(phi):
                return "recovered Kraus set is not minimal"
            n = max(len(w1), len(w2))
            pad1, pad2 = np.zeros(n), np.zeros(n)
            pad1[: len(w1)] = w1
            pad2[: len(w2)] = w2
            if np.abs(np.sort(pad1) - np.sort(pad2)).max() > 1e-10:
                return "complement output spectrum differs"
            return None
        if kind == "perturb":  # criterion 12
            if not chan.is_extreme(result.channel):
                return "perturbed channel is not extreme"
            if not chan.validate_cpt(result.channel).ok:
                return "perturbed channel is not CPT"
            if result.choi_distance > 0.2:
                return f"perturbation moved the channel by {result.choi_distance}"
            return None
        single_rank, tensor_rank = result  # criterion 15
        if not (isinstance(single_rank, int) and 1 <= single_rank <= 4):
            return f"single min output rank {single_rank!r} out of range"
        if not (isinstance(tensor_rank, int) and 1 <= tensor_rank <= 16):
            return f"tensor beta output rank {tensor_rank!r} out of range"
        return None

    def named(self, latencies_s):
        items = len(latencies_s) * len(STRUCTURE_ROUND)
        return [("structure_ops_per_s", items / sum(latencies_s), "1/s")]


class CLIMultcheck(Workload):
    """Closed loop, one client: ``python -m cptwb.cli multcheck`` processes."""

    name = "cli_multcheck"
    trace_ops = 2
    #: when set, each process runs under ``cli_traced.py`` and leaves its
    #: span summary in this directory
    trace_dir = None

    def setup(self, seed):
        from cptwb import cli  # noqa: F401  (the import a CLI user pays)

        self.seed = seed
        self.args = [
            "multcheck", "--family", "werner_holevo", "--dim", "3",
            "--p", "5", "--seed", str(seed),
        ]
        self.env = child_env()
        self.first_stdout = None
        self.reference = None
        self.peak_rss_mb = 0.0
        self.child_summaries = []

    def warm_up(self):
        self._process(
            [sys.executable, "-m", "cptwb.cli"] + self.args
            + ["--restarts", "2", "--tensor-restarts", "2"]
        )

    def run(self, i):
        command = [sys.executable, "-m", "cptwb.cli"]
        if self.trace_dir is not None:
            stem = os.path.join(self.trace_dir, f"{self.name}-op{i}")
            command = [sys.executable, os.path.join(HERE, "cli_traced.py"), stem]
        code, out = self._process(command + self.args)
        if self.trace_dir is not None and code == 0:
            with open(stem + ".json") as f:
                self.child_summaries.append(json.load(f))
        return code, out

    def _process(self, argv):
        os.makedirs(OUT_DIR, exist_ok=True)
        with open(os.path.join(OUT_DIR, "cli-stderr.txt"), "wb") as err:
            proc = subprocess.Popen(
                argv,
                stdout=subprocess.PIPE,
                stderr=err,
                env=self.env,
                cwd=ROOT,
            )
            with proc.stdout:
                out = proc.stdout.read()
            # wait4, not wait: it also returns the process's peak RSS
            _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_mb = max(self.peak_rss_mb, usage.ru_maxrss / 1024.0)
        return proc.returncode, out

    def check(self, i, result):
        code, out = result
        if code != 0:
            with open(os.path.join(OUT_DIR, "cli-stderr.txt"), errors="replace") as f:
                return f"exit code {code}: {f.read()[-500:]}"
        if self.first_stdout is None:
            self.first_stdout = out
        elif out != self.first_stdout:
            return "stdout differs from the first invocation"
        if self.reference is None:
            wh3 = zoo.werner_holevo(3)
            r = opt.mult_check(wh3, wh3, 5.0, opt.OptimizerConfig(seed=self.seed))
            self.reference = {
                "nu_a": _sig(r.nu_a),
                "nu_b": _sig(r.nu_b),
                "nu_ab_lb": _sig(r.nu_product_lb),
                "product_of_singles": _sig(r.product_of_singles),
                "gap": _sig(r.gap),
                "violated": "true" if r.violated else "false",
            }
        lines = dict(
            line.split(" = ", 1) for line in out.decode().splitlines() if " = " in line
        )
        if lines.get("violated") != "true":
            return "CLI did not report violated = true"
        for key, want in self.reference.items():
            if lines.get(key) != want:
                return f"CLI {key} = {lines.get(key)!r}, in-process {want!r}"
        return None

    def named(self, latencies_s):
        p50, tail, q = latency_summary(latencies_s)
        return [
            ("cli_ms_p50", 1e3 * p50, "ms"),
            (f"cli_ms_tail(p{q:.4g})", 1e3 * tail, "ms"),
        ]


WORKLOADS = {
    w.name: w for w in (WH3Scan, RandomSweep, StructureSweep, CLIMultcheck)
}

def latency_summary(latencies_s) -> tuple[float, float, float]:
    """(median, tail, q): the tail is the q-th percentile, the highest with
    at least ten samples beyond it (q = 100·(1 − 10/n)); below 20 samples
    no such percentile reaches the median, and the tail is the median."""
    lat = np.asarray(latencies_s, dtype=float)
    q = max(50.0, 100.0 * (1.0 - 10.0 / lat.size))
    return float(np.median(lat)), float(np.percentile(lat, q)), q


def child_env() -> dict:
    """Environment for child processes: the checkout's ``src`` on the path."""
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env
