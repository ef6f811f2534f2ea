"""The cptwb benchmark.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --workload all      # every workload, one process each

Run from the root of a checkout; the package is imported from ``src/``.
With ``--trace 0`` the run sets up (timed, several times), measures
operations for ``--seconds`` seconds, checks every result, and prints the
end-to-end metrics.  Their times are in reference seconds: a fixed
reference slice runs between the timed work and takes the machine's
speed out of them (see ``refspeed.py``).  With ``--trace 1`` it runs a
fixed number of operations instead: once untraced, then twice with every
cptwb layer wrapped (see ``tracing.py``); it checks that the count
metrics repeat exactly and prints the per-layer metrics.  The last
stdout line is the JSON result ``{"correct", "attempted", "failed",
"metrics"}``; the lines above it give the workload's metrics under their
own names and the environment.
Workloads and metrics are described in ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
NAMES = ("wh3_scan", "random_sweep", "structure_sweep", "cli_multcheck")
#: Workloads whose operations wait on a child process: their reference
#: slices run between operations, not inside them.
WAITS_ON_CHILD = ("cli_multcheck",)

#: Set-ups timed per run (this process plus fresh child processes).
SETUP_SAMPLES = 7
#: Fresh processes that only import cptwb.cli, for ``cli.import_s``.
IMPORT_SAMPLES = 3
#: Seed kept out of tuning; later claims must also hold on it.
HELD_OUT_SEED = 7919


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def new_clock(name: str):
    refspeed = importlib.import_module("refspeed")
    return refspeed.Clock(interleave=name not in WAITS_ON_CHILD)


def timed_setup(name: str, seed: int):
    """Import cptwb, build the inputs and warm up; return the workload and
    the time that took, in reference seconds."""

    def setup():
        workloads = importlib.import_module("workloads")
        w = workloads.WORKLOADS[name]()
        w.setup(seed)
        w.warm_up()
        return w

    clock = new_clock(name)
    clock.sample()
    w, seconds = clock.call(setup)
    clock.sample()
    return w, seconds * clock.speed()


def setup_in_child(name: str, seed: int) -> float:
    out = subprocess.run(
        [sys.executable, __file__, "--workload", name, "--seed", str(seed),
         "--setup-only"],
        capture_output=True, text=True, check=True, cwd=ROOT,
    ).stdout
    return json.loads(out.splitlines()[-1])["setup_s"]


def run_op(w, i: int):
    try:
        return w.run(i)
    except Exception as exc:  # a failed operation is data, not a crash
        traceback.print_exc()
        return exc


def failure(w, i: int, result) -> bool:
    why = repr(result) if isinstance(result, Exception) else w.check(i, result)
    if why is not None:
        print(f"FAILED {w.name} op {i}: {why}", file=sys.stderr)
    return why is not None


def measure(w, seconds: float, clock):
    """Run and check operations for about ``seconds`` (at least one).

    Only the operations are timed, by ``clock``, which leaves out its
    reference slices.  The loop stops when one more operation, as long as
    the last, would overrun the deadline by more than stopping now falls
    short of it; slow operations (a 10 s scan) then neither overrun nor
    fall short by more than half of one.
    """
    latencies, failed = [], 0
    w.now = clock.now
    start = time.perf_counter()
    clock.sample()
    while True:
        if not clock.interleave:
            clock.sample()
        result, latency = clock.call(run_op, w, len(latencies))
        latencies.append(latency)
        failed += failure(w, len(latencies) - 1, result)
        elapsed = time.perf_counter() - start
        if elapsed + latencies[-1] / 2 >= seconds:
            clock.sample()
            return latencies, failed


def environment() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, cwd=ROOT
        ).stdout.strip() or None
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "cptwb")
    for fname in sorted(os.listdir(pkg)):
        if fname.endswith(".py"):
            with open(os.path.join(pkg, fname), "rb") as f:
                digest.update(fname.encode() + f.read())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "CPTWB_THREADS": os.environ.get("CPTWB_THREADS"),
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def print_named(rows):
    for name, value, unit in rows:
        print(f"  {name:<44} {value:>14.6g} {unit}")


def end_to_end(args) -> tuple[dict, int, int]:
    w_main, t_setup = timed_setup(args.workload, args.seed)
    setups = [t_setup] + [
        setup_in_child(args.workload, args.seed) for _ in range(SETUP_SAMPLES - 1)
    ]
    clock = new_clock(args.workload)
    latencies, failed = measure(w_main, args.seconds, clock)
    busy = sum(latencies)
    speed = clock.speed()
    workloads = sys.modules["workloads"]
    p50, tail, q = workloads.latency_summary(latencies)
    if args.workload == "cli_multcheck":
        rss = w_main.peak_rss_mb
    else:
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (rss, "MB"),
        "ops_per_ref_s": (len(latencies) / (busy * speed), "1/s"),
    }
    print(
        f"{args.workload} seed={args.seed} ops={len(latencies)} "
        f"busy={busy:.3f}s setups={SETUP_SAMPLES} slices={len(clock.speeds)}"
    )
    print_named(
        [(k, v, u) for k, (v, u) in metrics.items()]
        + [
            ("speed", speed, "x reference"),
            ("ops_per_s", len(latencies) / busy, "1/s (wall)"),
            ("op_ms_p50", 1e3 * p50, "ms"),
            (f"op_ms_tail(p{q:.4g})", 1e3 * tail, "ms"),
            ("fail_rate", failed / len(latencies), f"({failed}/{len(latencies)})"),
        ]
        + w_main.named(latencies)
    )
    return metrics, len(latencies), failed


def cli_import_s() -> float:
    code = (
        "import time; t = time.perf_counter(); import cptwb.cli; "
        "print(time.perf_counter() - t)"
    )
    workloads = sys.modules["workloads"]
    times = [
        float(
            subprocess.run(
                [sys.executable, "-c", code], capture_output=True, text=True,
                check=True, env=workloads.child_env(), cwd=ROOT,
            ).stdout
        )
        for _ in range(IMPORT_SAMPLES)
    ]
    return statistics.median(times)


def cli_main_s(seed: int) -> float:
    from cptwb import cli

    argv = ["multcheck", "--family", "werner_holevo", "--dim", "3", "--p", "5",
            "--seed", str(seed)]
    t = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    elapsed = time.perf_counter() - t
    if code != 0:
        raise RuntimeError(f"cli.main returned {code}")
    return elapsed


def fixed_pass(args, n_ops: int, tracer=None):
    """Set up afresh and run the first ``n_ops`` operations, traced when a
    tracer is given.  Returns (span summary or None, seconds, failures)."""
    workloads = sys.modules["workloads"]
    w = workloads.WORKLOADS[args.workload]()
    if tracer is not None:
        tracer.install()
    try:
        w.setup(args.seed)
        if tracer is not None and args.workload == "cli_multcheck":
            w.trace_dir = workloads.OUT_DIR
        results = []
        t = time.perf_counter()
        for i in range(n_ops):
            if tracer is not None:
                tracer.current_op = i
            results.append(run_op(w, i))
        elapsed = time.perf_counter() - t
    finally:
        if tracer is not None:
            tracer.uninstall()
    failed = sum(failure(w, i, r) for i, r in enumerate(results))
    if tracer is None:
        return None, elapsed, failed
    tracing = sys.modules["tracing"]
    summary = tracing.merge([tracer.summary()] + getattr(w, "child_summaries", []))
    return summary, elapsed, failed


def per_layer(args) -> tuple[dict, int, int]:
    """The traced run: a fixed number of operations, not ``--seconds``."""
    w, _ = timed_setup(args.workload, args.seed)
    n_ops = w.trace_ops
    import_s = cli_import_s()
    main_s = cli_main_s(args.seed)

    tracing = importlib.import_module("tracing")
    out_dir = sys.modules["workloads"].OUT_DIR
    os.makedirs(out_dir, exist_ok=True)
    # untraced, then traced twice, back to back: the overhead compares
    # neighbouring time windows, and the two traced passes must agree on
    # every count
    _, untraced_s, failed = fixed_pass(args, n_ops)
    tracers = [tracing.Tracer(), tracing.Tracer()]
    passes = [fixed_pass(args, n_ops, t) for t in tracers]
    attempted = 3 * n_ops
    failed += sum(p[2] for p in passes)
    layers = [tracing.layer_metrics(p[0]) for p in passes]
    repeats = all(
        layers[0][name][0] == layers[1][name][0] for name in tracing.COUNT_METRICS
    )
    if not repeats:
        failed += 1
        attempted += 1
        for name in tracing.COUNT_METRICS:
            print(f"COUNT DIFFERS {name}: {layers[0][name][0]} vs "
                  f"{layers[1][name][0]}", file=sys.stderr)

    metrics = dict(layers[0])
    metrics["cli.import_s"] = (import_s, "s")
    metrics["cli.main_s"] = (main_s, "s")
    metrics["trace.overhead_ratio"] = (passes[0][1] / untraced_s, "ratio")

    path = os.path.join(out_dir, f"trace-{args.workload}-seed{args.seed}.npz")
    tracers[0].write(path, {"workload": args.workload, "seed": args.seed,
                            "ops": n_ops, "env": environment()})
    print(
        f"{args.workload} seed={args.seed} fixed ops={n_ops}: "
        f"untraced={untraced_s:.3f}s traced={passes[0][1]:.3f}s "
        f"and {passes[1][1]:.3f}s counts_repeat={repeats} spans={path}"
    )
    print_named([(k, v, u) for k, (v, u) in metrics.items()])
    return metrics, attempted, failed


def run_all(args) -> int:
    worst = 0
    for name in NAMES:
        code = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT,
        ).returncode
        worst = max(worst, code)
    return worst


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "cptwb", "__init__.py")):
        print(f"error: no cptwb package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.workload == "all":
        return run_all(args)
    if args.setup_only:
        _, t = timed_setup(args.workload, args.seed)
        print(json.dumps({"setup_s": t}))
        return 0
    run = per_layer if args.trace else end_to_end
    metrics, attempted, failed = run(args)
    print("env " + json.dumps(environment()))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
