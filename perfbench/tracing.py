"""Span tracing of cptwb from outside the package.

``Tracer.install`` replaces the public functions (defined in the module,
no leading underscore) of each cptwb layer (``linalg``, ``channels``,
``optimize``, ``entropy``, ``decompose``, ``zoo`` and ``cli``), plus
``ChannelSpec.build`` and ``numpy.linalg.eigh``, with wrappers that record
one span per call: name, start, end, parent span and the benchmark
operation it belongs to.  Module-level replacement also catches calls made
inside a module, because Python looks globals up at call time.
``uninstall`` puts the originals back.

Spans live in flat ``array`` columns (about 30 bytes each) and are written
once, at the end, with ``Tracer.write``.  A span's self time is its
duration minus the durations of its direct children; calls never overlap
because the benchmark runs single-threaded (``CPTWB_THREADS`` unset).
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import time
from array import array

import numpy as np

LAYERS = ("linalg", "channels", "optimize", "entropy", "decompose", "zoo", "cli")

#: Leaf helpers cheaper than a span; wrapping them would mostly time the tracer.
UNTRACED = {"linalg.as_matrix", "linalg.dagger"}

EIGH = "numpy.linalg.eigh"


class Tracer:
    """Records spans and the optimizer's report fields while installed."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.op = array("i")
        self.current_op = -1
        self.eigh_matrices = 0
        # one tuple per estimate_nu_p call:
        # (iterations, restarts, structured seeds, guard fallbacks, best hits)
        self.reports: list[tuple] = []
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, name: str, fn, on_return=None):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        name_id = self._name_ids[name]
        clock = time.perf_counter_ns
        stack = self._stack
        names, starts, ends, parents, ops = (
            self.name, self.start, self.end, self.parent, self.op
        )

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ops.append(self.current_op)
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if on_return is not None:
                on_return(args, kwargs, result)
            return result

        return traced

    def _count_eigh(self, args, kwargs, result):
        self.eigh_matrices += math.prod(np.shape(args[0])[:-2])

    def _record_report(self, args, kwargs, rep):
        p = rep.p
        tol = rep.config["value_tol"]
        hits = sum(
            abs(v**p - rep.best_trace_power) <= tol for v in rep.restart_values
        )
        self.reports.append(
            (
                sum(rep.iterations),
                len(rep.iterations),
                rep.n_structured_seeds,
                rep.guard_fallbacks,
                hits,
            )
        )

    def _patch(self, owner, attr: str, wrapper):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def install(self):
        """Wrap every public function of the cptwb layers, and numpy's eigh."""
        import importlib

        on_return = {
            "optimize.estimate_nu_p": self._record_report,
        }
        for layer in LAYERS:
            mod = importlib.import_module(f"cptwb.{layer}")
            for attr, fn in list(vars(mod).items()):
                name = f"{layer}.{attr}"
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(fn)
                    and fn.__module__ == mod.__name__
                    and name not in UNTRACED
                ):
                    self._patch(mod, attr, self._wrap(name, fn, on_return.get(name)))
        zoo = importlib.import_module("cptwb.zoo")
        self._patch(
            zoo.ChannelSpec, "build", self._wrap("zoo.build", zoo.ChannelSpec.build)
        )
        self._patch(
            np.linalg, "eigh", self._wrap(EIGH, np.linalg.eigh, self._count_eigh)
        )

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- summaries ---------------------------------------------------------

    def summary(self) -> dict:
        """Per-name calls, total and self seconds, plus report sums."""
        n = len(self.start)
        names = np.frombuffer(self.name, dtype=np.int32, count=n)
        parent = np.frombuffer(self.parent, dtype=np.int64, count=n)
        dur = (
            np.frombuffer(self.end, dtype=np.int64, count=n)
            - np.frombuffer(self.start, dtype=np.int64, count=n)
        ).astype(np.float64) * 1e-9
        has_parent = parent >= 0
        covered = np.bincount(
            parent[has_parent], weights=dur[has_parent], minlength=n
        )
        self_time = dur - covered
        k = len(self.names)
        calls = np.bincount(names, minlength=k)
        total = np.bincount(names, weights=dur, minlength=k)
        own = np.bincount(names, weights=self_time, minlength=k)
        spans = {
            name: {
                "calls": int(calls[i]),
                "total_s": float(total[i]),
                "self_s": float(own[i]),
            }
            for i, name in enumerate(self.names)
        }
        # estimate_nu_p calls made directly by mult_check
        mc = self._name_ids.get("optimize.mult_check")
        est = self._name_ids.get("optimize.estimate_nu_p")
        in_mult_check = 0
        if mc is not None and est is not None and n:
            is_est = names == est
            parent_name = names[np.where(has_parent, parent, 0)]
            in_mult_check = int(np.count_nonzero(is_est & has_parent & (parent_name == mc)))
        return {
            "spans": spans,
            "span_count": n,
            "eigh_matrices": self.eigh_matrices,
            "reports": [list(r) for r in self.reports],
            "estimate_calls_in_mult_check": in_mult_check,
        }

    def write(self, path, meta: dict):
        """Write every recorded span to ``path`` (compressed .npz) in one go."""
        n = len(self.start)
        np.savez_compressed(
            path,
            name=np.frombuffer(self.name, dtype=np.int32, count=n),
            start_ns=np.frombuffer(self.start, dtype=np.int64, count=n),
            end_ns=np.frombuffer(self.end, dtype=np.int64, count=n),
            parent=np.frombuffer(self.parent, dtype=np.int64, count=n),
            op=np.frombuffer(self.op, dtype=np.int32, count=n),
            names=np.array(self.names),
            meta=np.array(json.dumps(meta)),
        )


def merge(summaries: list[dict]) -> dict:
    """Sum several ``Tracer.summary`` results (e.g. from child processes)."""
    out = {
        "spans": {},
        "span_count": 0,
        "eigh_matrices": 0,
        "reports": [],
        "estimate_calls_in_mult_check": 0,
    }
    for s in summaries:
        for name, rec in s["spans"].items():
            acc = out["spans"].setdefault(
                name, {"calls": 0, "total_s": 0.0, "self_s": 0.0}
            )
            for key in acc:
                acc[key] += rec[key]
        for key in ("span_count", "eigh_matrices", "estimate_calls_in_mult_check"):
            out[key] += s[key]
        out["reports"].extend(s["reports"])
    return out


#: Counts that must repeat exactly when the same operations run again.
COUNT_METRICS = (
    "optimize.iterations",
    "linalg.eigh_calls",
    "linalg.eigh_matrices",
    "channels.apply.calls",
    "optimize.estimate_nu_p.calls",
)

SELF_TIMES = (
    "linalg.herm_eig",
    "linalg.psd_power",
    "linalg.trace_power",
    "linalg.psd_eigvals",
    "linalg.numerical_rank",
    "channels.apply",
    "channels.apply_adjoint",
    "channels.tensor",
    "channels.kraus_to_choi",
    "channels.choi_to_kraus",
    "channels.complement",
    "channels.is_extreme",
    "channels.perturb_to_extreme",
    "optimize.opt2_run",
    "optimize.estimate_nu_p",
    "optimize.mult_check",
    "entropy.min_output_rank",
    "decompose.horn_vectors",
    "decompose.szarek_split",
    "decompose.schur_horn_equalize",
)


def layer_metrics(s: dict) -> dict:
    """Per-layer metric values (name -> (value, unit)) from a summary."""
    spans = s["spans"]

    def get(name, key):
        return spans.get(name, {}).get(key, 0)

    reps = s["reports"]
    iterations = sum(r[0] for r in reps)
    restarts = sum(r[1] for r in reps)
    structured = sum(r[2] for r in reps)
    hits = sum(r[4] for r in reps)
    eigh_calls = get(EIGH, "calls")
    mult_checks = get("optimize.mult_check", "calls")
    zoo_self = sum(
        rec["self_s"] for name, rec in spans.items() if name.startswith("zoo.")
    )

    def ratio(a, b):
        return a / b if b else 0.0

    m = {
        "linalg.eigh_calls": (eigh_calls, "count"),
        "linalg.eigh_matrices": (s["eigh_matrices"], "count"),
        "linalg.eigh_per_iter": (ratio(eigh_calls, iterations), "1/iter"),
        "linalg.eigh.self_s": (get(EIGH, "self_s"), "s"),
        "channels.apply.calls": (get("channels.apply", "calls"), "count"),
        "channels.apply_adjoint.calls": (
            get("channels.apply_adjoint", "calls"), "count"
        ),
        "optimize.iterations": (iterations, "count"),
        "optimize.runs": (get("optimize.opt2_run", "calls"), "count"),
        "optimize.us_per_iter": (
            ratio(1e6 * get("optimize.opt2_run", "total_s"), iterations), "us"
        ),
        "optimize.estimate_nu_p.calls": (
            get("optimize.estimate_nu_p", "calls"), "count"
        ),
        "optimize.estimate_nu_p.calls_per_mult_check": (
            ratio(s["estimate_calls_in_mult_check"], mult_checks), "ratio"
        ),
        "optimize.guard_fallbacks": (sum(r[3] for r in reps), "count"),
        "optimize.structured_share": (ratio(structured, restarts), "ratio"),
        "optimize.structured_share_max": (
            max((ratio(r[2], r[1]) for r in reps), default=0.0), "ratio"
        ),
        "optimize.best_hit_ratio": (ratio(hits, restarts), "ratio"),
        "zoo.build.self_s": (zoo_self, "s"),
        "trace.spans": (s["span_count"], "count"),
    }
    for name in SELF_TIMES:
        m[f"{name}.self_s"] = (get(name, "self_s"), "s")
    return m
