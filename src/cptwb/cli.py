"""Command line front end (``cptwb``).

Subcommands
-----------
``info``         validate and classify a channel
``numax``        extremal output p-norm estimate (multistart fixed point)
``smin``         minimal output Rényi-p entropy (p = 0 at the rank proxy)
``multcheck``    multiplicativity check for a pair of channels at one p
``multscan``     grid scan, then the violation threshold placed from the
                 certificate's gap curve (bisection as the fallback)
``decompose``    split a qubit-output channel into two Choi-rank-≤d_in halves
``extremality``  extremality classification, optional perturbation to extreme
``complement``   emit the complementary channel as channel JSON

Channels come from ``--input FILE`` (channel JSON: ``{"d_in", "d_out",
"kraus": [...]}`` with matrices as nested ``[re, im]`` pairs), from
``--spec-file FILE`` (a serialized family spec), or from ``--family NAME``
plus the family's parameters (``--dim``, ``--x``, ``--alpha``,
``--epsilon``, ``--unitaries-file``, ``--seed``; see ``zoo.FAMILIES``).

``_build_parser`` is the one place a subcommand's flags are declared.  Each
flag belongs to one flag group, declared once: ``common`` (``--seed``,
``--no-validate``, ``--format``, ``--output`` and the channel source, which
every subcommand takes), ``pair`` (the ``-b`` channel source), ``order``
(``--p``), ``search`` (``--restarts``, ``--max-iters``), ``tensor``
(``--tensor-restarts``), ``dump`` (``--dump-kraus``), ``scan``
(``--p-grid``, ``--resolution``) and ``perturb`` (``--perturb``).  Its
subcommand table gives each subcommand one row, which names the groups it
takes.

Each ``cmd_*`` computes its result and returns the report body with an
exit code; ``main`` finishes every report in one place.  Before the command
runs it refuses ``--format csv`` on a subcommand without a table, and an
``--output`` path that cannot be written (exit 2), without creating or
truncating the file.  After it, ``main`` prepends the head (``command``,
``version``, ``seed``), renders the report (CSV rows are multscan's
``rows``, or multcheck's report as its one row), writes it to stdout or
``--output`` and returns the code.

Exit codes: 0 success (a reported violation or non-convergence is data,
not an error), 2 invalid input, 3 numerical failure or running out of
memory, 64 bad usage.
Output is deterministic: identical invocations produce identical bytes,
floats are rendered to 12 significant digits, and JSON keys keep a fixed
order.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from dataclasses import asdict

import numpy as np

from . import __version__
from . import linalg as la
from . import channels as chan
from . import zoo
from . import entropy
from . import optimize as opt
from . import decompose as dec

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_NUMERICAL = 3
EXIT_USAGE = 64

#: Most points a ``--p-grid`` may have; each point is a full ``mult_check``.
P_GRID_MAX = 10_000


class UsageError(Exception):
    """Bad flags or flag combinations (exit 64)."""


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad flags; route through UsageError for exit 64.
    def error(self, message):
        raise UsageError(message)


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

def _sig(x: float) -> str:
    return format(float(x), ".12g")


def _jsonable(obj):
    """Round floats to 12 significant digits and strip numpy types."""
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return float(_sig(obj))
    return obj


def _vec_json(v) -> list:
    return [[float(z.real), float(z.imag)] for z in np.asarray(v).reshape(-1)]


def _render_json(report: dict) -> str:
    return json.dumps(_jsonable(report), indent=2, sort_keys=False) + "\n"


def _is_scalar(x) -> bool:
    return x is None or isinstance(x, (bool, int, float, str))


def _fmt_scalar(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if x is None:
        return "null"
    if isinstance(x, float):
        return _sig(x)
    return str(x)


def _render_text(report: dict) -> str:
    lines: list[str] = []

    def walk(prefix: str, val):
        if isinstance(val, dict):
            for k, v in val.items():
                walk(f"{prefix}.{k}" if prefix else str(k), v)
        elif isinstance(val, (list, tuple)):
            items = list(val)
            if items and all(isinstance(v, dict) for v in items):
                for i, v in enumerate(items):
                    walk(f"{prefix}[{i}]", v)
            elif all(_is_scalar(v) for v in items):
                lines.append(f"{prefix} = {', '.join(_fmt_scalar(v) for v in items)}")
            else:
                lines.append(f"{prefix} = {json.dumps(_jsonable(items))}")
        else:
            lines.append(f"{prefix} = {_fmt_scalar(val)}")

    walk("", report)
    return "\n".join(lines) + "\n"


CSV_COLUMNS = ("p", "nu_a", "nu_b", "nu_ab_lb", "gap", "violated")

#: The subcommands with a table, the only ones ``--format csv`` renders.
_CSV_COMMANDS = ("multcheck", "multscan")


def _render_csv(rows: list[dict]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for row in rows:
        writer.writerow(
            [
                _fmt_scalar(row[c]) if isinstance(row[c], (bool, float)) else row[c]
                for c in CSV_COLUMNS
            ]
        )
    return buf.getvalue()


def _check_output(path: str):
    """Raise ``OSError`` unless ``path`` could be written: it is no directory,
    its directory exists, and the file (or, for a new one, its directory) is
    writable.  The file is neither created nor truncated."""
    folder = os.path.dirname(path) or "."
    if os.path.isdir(path):
        raise IsADirectoryError(f"--output {path!r} is a directory")
    if not os.path.isdir(folder):
        raise FileNotFoundError(f"--output directory {folder!r} does not exist")
    if not os.access(path if os.path.exists(path) else folder, os.W_OK):
        raise PermissionError(f"--output {path!r} is not writable")


def _emit(args, report: dict):
    if args.format == "json":
        text = _render_json(report)
    elif args.format == "csv":
        # multscan's table is its rows; multcheck's one row is its report
        text = _render_csv(report.get("rows", [report]))
    else:
        text = _render_text(report)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# Channel sourcing
# ---------------------------------------------------------------------------

def _read_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


# The family-parameter flags: (argparse dest, type options, help text).
_PARAM_FLAGS = (
    ("dim", {"type": int}, "dimension"),
    ("x", {"type": float}, "mixing weight x in x*id + (1-x)*channel"),
    ("alpha", {"type": float, "nargs": 2, "metavar": ("A0", "A1")}, "amplitudes"),
    ("epsilon", {"type": float}, "output radius around I/d"),
    ("unitaries_file", {"metavar": "FILE"}, "JSON list of (d-1)x(d-1) unitaries"),
)


def _add_channel_source(p: argparse.ArgumentParser, suffix: str = ""):
    sfx = f"-{suffix}" if suffix else ""
    tag = f" (channel {suffix.upper()})" if suffix else ""
    p.add_argument(f"--input{sfx}", metavar="FILE", help=f"channel JSON file{tag}")
    p.add_argument(
        f"--spec-file{sfx}", metavar="FILE", help=f"channel family spec JSON{tag}"
    )
    p.add_argument(
        f"--family{sfx}", choices=zoo.FAMILIES, help=f"built-in channel family{tag}"
    )
    for dest, kwargs, what in _PARAM_FLAGS:
        users = ", ".join(
            n for n, f in zoo.FAMILIES.items() if dest in (q.flag for q in f.params)
        )
        p.add_argument(
            f"--{dest.replace('_', '-')}{sfx}", help=f"{what} ({users}){tag}", **kwargs
        )


def _get(args, name: str, suffix: str):
    return getattr(args, f"{name}_{suffix}" if suffix else name)


def _params_from_flags(args, family: str, suffix: str) -> dict:
    """The family's parameters, in schema order, from the flags that feed them."""
    params: dict = {}
    for prm in zoo.FAMILIES[family].params:
        if prm.flag is None or any(k in params for k in prm.unused_with):
            continue
        # --seed is shared by both channels of a pair
        value = _get(args, prm.flag, "" if prm.flag == "seed" else suffix)
        if value is None:
            if prm.required:
                sfx = f"-{suffix}" if suffix else ""
                flag = f"--{prm.flag.replace('_', '-')}{sfx}"
                raise UsageError(f"--family{sfx} {family} needs {flag}")
            continue
        params[prm.name] = _read_json(value) if prm.flag == "unitaries_file" else value
    return params


def _load_channel(args, suffix: str = "", required: bool = True, validate: bool = True):
    """Resolve one channel source; returns (channel, description) or None."""
    from_file = _get(args, "input", suffix)
    spec_file = _get(args, "spec_file", suffix)
    family = _get(args, "family", suffix)
    given = [s for s in (from_file, spec_file, family) if s is not None]
    if len(given) > 1:
        raise UsageError("give exactly one of --input / --spec-file / --family")
    if not given:
        if required:
            raise UsageError(
                "no channel given: use --input, --spec-file, or --family"
            )
        return None

    if from_file is not None:
        ch = chan.channel_from_json(_read_json(from_file), validate=False)
        desc = {"source": "file", "path": from_file}
    else:
        if spec_file is not None:
            spec = zoo.ChannelSpec.from_json(_read_json(spec_file))
        else:
            spec = zoo.ChannelSpec(family, **_params_from_flags(args, family, suffix))
        ch = spec.build()
        desc = {"source": "family", "family": spec.family, "params": spec.params}
    if validate and not args.no_validate:
        # the one CPT gate; its Choi analysis stays cached on ``ch``
        rep = chan.validate_cpt(ch)
        if not rep.ok:
            raise chan.ChannelValidationError(
                "channel failed CPT validation: " + "; ".join(rep.messages)
            )
    return ch, desc


def _config(args) -> opt.OptimizerConfig:
    """The optimizer settings from the flags a subcommand has; the rest keep
    their ``OptimizerConfig`` defaults."""
    flags = ("restarts", "max_iters", "seed", "tensor_restarts")
    given = {f: getattr(args, f) for f in flags if hasattr(args, f)}
    return opt.OptimizerConfig(**given)


def _shape(ch: chan.KrausChannel) -> dict:
    return {"d_in": ch.d_in, "d_out": ch.d_out, "n_kraus": len(ch)}


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_info(args) -> tuple[dict, int]:
    # info's report *is* the validation gate, so loading skips it
    ch, desc = _load_channel(args, validate=False)
    rep = chan.validate_cpt(ch)
    report = {
        "channel": desc,
        **_shape(ch),
        "validation": {**asdict(rep), "tolerance": chan.TP_TOL},
        "classification": asdict(chan.classify(ch)) if rep.choi_psd else None,
    }
    if args.dump_kraus:
        report["kraus"] = chan.channel_to_json(ch)["kraus"]
    return report, EXIT_OK if (rep.ok or args.no_validate) else EXIT_INVALID


def cmd_numax(args) -> tuple[dict, int]:
    ch, desc = _load_channel(args)
    cfg = _config(args)
    rep = opt.estimate_nu_p(ch, args.p, cfg)
    return {
        "channel": desc,
        "p": rep.p,
        "direction": rep.direction,
        "best_value": rep.best_value,
        "best_trace_power": rep.best_trace_power,
        "best_restart": rep.best_restart,
        "n_restarts": cfg.restarts,
        "n_structured_seeds": rep.n_structured_seeds,
        "all_converged": bool(all(rep.converged)),
        # all_converged counts guard stalls too; this says how runs ended
        "statuses": {s: rep.statuses.count(s) for s in opt.STATUSES},
        "max_iterations": int(max(rep.iterations)),
        "monotonicity_violations": rep.monotonicity_violations,
        "guard_fallbacks": rep.guard_fallbacks,
        "extrapolations_rejected": rep.extrapolations_rejected,
        "best_input": _vec_json(rep.best_input),
        "config": rep.config,
        "tolerances": {"value_tol": cfg.value_tol},
    }, EXIT_OK


def cmd_smin(args) -> tuple[dict, int]:
    ch, desc = _load_channel(args)
    cfg = _config(args)
    rep = entropy.estimate_smin_p(ch, args.p, cfg)
    return {
        "channel": desc,
        "p": rep.p,
        "value": rep.value,
        "nu_value": rep.nu_value,
        "argmin": _vec_json(rep.argmin),
        "config": rep.config,
        "tolerances": {"value_tol": cfg.value_tol},
    }, EXIT_OK


def _mult_row(r: opt.MultReport) -> dict:
    return {
        "p": r.p,
        "nu_a": r.nu_a,
        "nu_b": r.nu_b,
        "nu_ab_lb": r.nu_product_lb,
        "gap": r.gap,
        "violated": r.violated,
    }


def _load_pair(args):
    ch_a, desc_a = _load_channel(args)
    loaded_b = _load_channel(args, suffix="b", required=False)
    if loaded_b is None:
        return ch_a, desc_a, ch_a, {"source": "same_as_a"}
    ch_b, desc_b = loaded_b
    return ch_a, desc_a, ch_b, desc_b


def cmd_multcheck(args) -> tuple[dict, int]:
    ch_a, desc_a, ch_b, desc_b = _load_pair(args)
    cfg = _config(args)
    r = opt.mult_check(ch_a, ch_b, args.p, cfg)
    return {
        "channel_a": desc_a,
        "channel_b": desc_b,
        "p": r.p,
        "nu_a": r.nu_a,
        "nu_b": r.nu_b,
        "nu_ab_lb": r.nu_product_lb,
        "product_of_singles": r.product_of_singles,
        "gap": r.gap,
        "violated": r.violated,
        "tensor_dim": r.tensor_dim,
        "certificate": _vec_json(r.certificate),
        "config": r.config,
        "tolerances": {"value_tol": cfg.value_tol, "violation_margin": opt.VIOLATION_MARGIN},
    }, EXIT_OK


def _parse_p_grid(text: str) -> list[float]:
    parts = text.split(":")
    if len(parts) != 3:
        raise UsageError("--p-grid must be start:stop:step")
    try:
        start, stop, step = (float(t) for t in parts)
    except ValueError as exc:
        raise UsageError(f"bad --p-grid value: {exc}") from exc
    if not all(math.isfinite(x) for x in (start, stop, step)):
        raise UsageError("--p-grid start, stop and step must be finite")
    if step <= 0.0:
        raise UsageError("--p-grid step must be positive")
    if stop < start:
        raise UsageError("--p-grid stop must be >= start")
    # the points start + k·step grow with k, so point P_GRID_MAX (the first
    # one past the limit) is on the grid exactly when the grid is too long
    if start + P_GRID_MAX * step <= stop + 1e-12:
        raise UsageError(f"--p-grid has more than {P_GRID_MAX} points")
    grid = (start + k * step for k in range(P_GRID_MAX))
    return [v for v in grid if v <= stop + 1e-12]  # stop is included up to roundoff


def cmd_multscan(args) -> tuple[dict, int]:
    ch_a, desc_a, ch_b, desc_b = _load_pair(args)
    cfg = _config(args)
    grid = _parse_p_grid(args.p_grid)
    scan = opt.mult_scan(ch_a, ch_b, grid, cfg, resolution=args.resolution)
    return {
        "channel_a": desc_a,
        "channel_b": desc_b,
        "p_grid": args.p_grid,
        "resolution": args.resolution,
        "rows": [
            {**_mult_row(r), "decided_by": r.decided_by,
             "continued": r.continued_restarts, "fresh": r.fresh_restarts}
            for r in scan.rows
        ],
        "threshold": scan.threshold,
        "bracket": list(scan.bracket) if scan.bracket else None,
        "placed_by": scan.placed_by,
        "gap_evaluations": scan.gap_evaluations,
        "config": dict(vars(cfg)),
        "tolerances": {"value_tol": cfg.value_tol, "violation_margin": opt.VIOLATION_MARGIN},
    }, EXIT_OK


def cmd_decompose(args) -> tuple[dict, int]:
    ch, desc = _load_channel(args)
    h1, h2 = dec.szarek_split_choi(ch.choi)
    mixture = (h1.matrix + h2.matrix) / 2.0
    residual = float(np.abs(mixture - ch.choi.matrix).max())

    halves = []
    target = np.eye(ch.d_in) / ch.d_in
    for half in (h1, h2):
        rank = chan.choi_rank(half)
        marginal = la.partial_trace(half.matrix, (ch.d_in, ch.d_out), keep=0)
        entry = {
            "choi_rank": rank,
            "generalized_extreme": rank <= ch.d_in,
            "tp_residual": float(np.abs(marginal - target).max()),
            "min_eigval": float(half.spectrum[0][0]),
            "choi": la.matrix_to_json(half.matrix),
        }
        if args.dump_kraus:
            entry["kraus"] = chan.channel_to_json(chan.choi_to_kraus(half))["kraus"]
        halves.append(entry)

    return {
        "channel": desc,
        "d_in": ch.d_in,
        "d_out": ch.d_out,
        "choi_rank": chan.choi_rank(ch),
        "mixture_residual": residual,
        "halves": halves,
        "tolerances": {"support_tol": dec.SUPPORT_TOL, "rank_tol": la.RANK_TOL},
    }, EXIT_OK


def cmd_extremality(args) -> tuple[dict, int]:
    ch, desc = _load_channel(args)
    report = {"channel": desc, **_shape(ch), "classification": asdict(chan.classify(ch))}
    if args.perturb is not None:
        res = chan.perturb_to_extreme(ch, epsilon0=args.perturb, seed=args.seed)
        pert = {
            "epsilon0": args.perturb,
            "epsilon_used": res.epsilon,
            "already_extreme": res.already_extreme,
            "halvings": res.halvings,
            "choi_distance": res.choi_distance,
            "is_extreme": chan.is_extreme(res.channel),
        }
        if args.dump_kraus:
            pert["channel"] = chan.channel_to_json(res.channel)
        report["perturbation"] = pert
    if args.dump_kraus:
        report["kraus"] = chan.channel_to_json(ch)["kraus"]
    return report, EXIT_OK


def cmd_complement(args) -> tuple[dict, int]:
    ch, desc = _load_channel(args)
    comp = chan.complement(chan._extremality(ch)[1])
    val = chan.validate_cpt(comp)
    return {
        "channel": desc,
        **_shape(comp),
        "validation_ok": val.ok,
        "tp_residual": val.tp_residual,
        "channel_json": chan.channel_to_json(comp),
    }, EXIT_OK


# ---------------------------------------------------------------------------
# Parser assembly
# ---------------------------------------------------------------------------

def _build_parser() -> _Parser:
    """The ``cptwb`` parser.  Each flag is declared once, in one group, and
    each subcommand is one row of ``commands``: its handler, the groups it
    takes besides ``common``, and its help line."""
    common, pair, order, search, tensor, dump, scan, perturb = (
        _Parser(add_help=False) for _ in range(8)
    )
    common.add_argument("--seed", type=int, default=0, help="seed for all randomness")
    common.add_argument(
        "--no-validate", action="store_true", help="skip the CPT validation gate"
    )
    common.add_argument(
        "--format", choices=("json", "csv", "text"), default="text",
        help="report format (default text; csv only for multcheck and multscan)",
    )
    common.add_argument("--output", metavar="FILE", help="write the report to FILE")
    _add_channel_source(common)  # every subcommand reads a channel
    _add_channel_source(pair, suffix="b")
    order.add_argument("--p", type=float, required=True, help="Renyi order p")
    defaults = opt.OptimizerConfig()
    search.add_argument(
        "--restarts", type=int, default=defaults.restarts,
        help=f"fixed-point runs per single-channel search, structured seeds first "
        f"(default {defaults.restarts})",
    )
    search.add_argument(
        "--max-iters", type=int, default=defaults.max_iters,
        help=f"most passes per run (default {defaults.max_iters})",
    )
    tensor.add_argument(
        "--tensor-restarts", type=int, default=defaults.tensor_restarts,
        help=f"fixed-point runs per search of the tensor product "
        f"(default {defaults.tensor_restarts}); in multscan, later searches above "
        f"p = 1 continue from a neighbouring row's end states plus "
        f"{opt._FRESH_SEEDS} fresh Haar seeds",
    )
    dump.add_argument(
        "--dump-kraus", action="store_true", help="include the Kraus operators in the report"
    )
    scan.add_argument(
        "--p-grid", required=True, metavar="START:STOP:STEP",
        help=f"stop included; at most {P_GRID_MAX} points",
    )
    scan.add_argument(
        "--resolution", type=float, default=0.01,
        help="widest final bracket of the threshold (default 0.01)",
    )
    perturb.add_argument(
        "--perturb", type=float, metavar="EPS0",
        help="perturb a generalized-extreme channel to a true extreme point",
    )
    commands = (
        ("info", cmd_info, [dump], "validate and classify"),
        ("numax", cmd_numax, [search, order], "extremal output p-norm"),
        ("smin", cmd_smin, [search, order], "minimal output Renyi entropy"),
        ("multcheck", cmd_multcheck, [search, tensor, pair, order],
         "multiplicativity check at one p"),
        ("multscan", cmd_multscan, [search, tensor, pair, scan],
         "threshold scan over Renyi orders: a grid, then the onset "
         "placed from the gap curve's root, or by bisection"),
        ("decompose", cmd_decompose, [dump],
         "split a qubit-output channel into rank-bounded halves"),
        ("extremality", cmd_extremality, [perturb, dump], "extremality classification"),
        ("complement", cmd_complement, [], "emit the complementary channel"),
    )

    parser = _Parser(
        prog="cptwb",
        description="numerical workbench for finite-dimensional quantum channels",
    )
    parser.add_argument("--version", action="version", version=f"cptwb {__version__}")
    sub = parser.add_subparsers(dest="subcommand", metavar="COMMAND")
    for name, func, groups, what in commands:
        sub.add_parser(name, parents=[common, *groups], help=what).set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if not hasattr(args, "func"):
            raise UsageError("missing subcommand (see cptwb --help)")
        if args.format == "csv" and args.subcommand not in _CSV_COMMANDS:
            only = " and ".join(_CSV_COMMANDS)
            raise UsageError(f"--format csv is only available for {only}")
        if args.output:
            _check_output(args.output)
        body, code = args.func(args)
        head = {"command": args.subcommand, "version": __version__, "seed": args.seed}
        _emit(args, {**head, **body})
        return code
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:
        print(f"numerical error: out of memory. {exc}".rstrip(), file=sys.stderr)
        return EXIT_NUMERICAL
    # LinAlgError subclasses ValueError, so the numerical branch goes first.
    except (RuntimeError, FloatingPointError, OverflowError, np.linalg.LinAlgError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, OSError) as exc:
        # covers ChannelValidationError, shape/hermiticity/PSD failures,
        # malformed JSON, and unreadable files
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
