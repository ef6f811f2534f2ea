"""Command line front end (``cptwb``).

Subcommands
-----------
``info``         validate and classify a channel
``numax``        extremal output p-norm estimate (multistart fixed point)
``smin``         minimal output Rényi-p entropy (p = 0 at the rank proxy)
``multcheck``    multiplicativity check for a pair of channels at one p
``multscan``     grid scan + bisection of the violation threshold
``decompose``    split a qubit-output channel into two Choi-rank-≤d_in halves
``extremality``  extremality classification, optional perturbation to extreme
``complement``   emit the complementary channel as channel JSON

Channels come from ``--input FILE`` (channel JSON: ``{"d_in", "d_out",
"kraus": [...]}`` with matrices as nested ``[re, im]`` pairs), from
``--spec-file FILE`` (a serialized family spec), or from ``--family NAME``
plus the family's parameters (``--dim``, ``--x``, ``--alpha``,
``--epsilon``, ``--unitaries-file``, ``--seed``; see ``zoo.FAMILIES``).

Exit codes: 0 success (a reported violation or non-convergence is data,
not an error), 2 invalid input, 3 numerical failure, 64 bad usage.
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


def _emit(args, report: dict, csv_rows: list[dict] | None = None):
    if args.format == "json":
        text = _render_json(report)
    elif args.format == "csv":
        if csv_rows is None:
            raise UsageError(
                "--format csv is only available for multcheck and multscan"
            )
        text = _render_csv(csv_rows)
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


def _tolerances(cfg: opt.OptimizerConfig, mult: bool = False) -> dict:
    """The optimizer reports' ``tolerances``; multiplicativity adds its margin."""
    tol = {"value_tol": cfg.value_tol}
    if mult:
        tol["violation_margin"] = opt.VIOLATION_MARGIN
    return tol


def _head(command: str, args, desc: dict | None = None) -> dict:
    head = {"command": command, "version": __version__, "seed": args.seed}
    if desc is not None:
        head["channel"] = desc
    return head


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_info(args) -> int:
    # info's report *is* the validation gate, so loading skips it
    ch, desc = _load_channel(args, validate=False)
    rep = chan.validate_cpt(ch)
    report = _head("info", args, desc)
    report.update(
        {
            "d_in": ch.d_in,
            "d_out": ch.d_out,
            "n_kraus": len(ch),
            "validation": {**asdict(rep), "tolerance": 1e-10},
        }
    )
    report["classification"] = asdict(chan.classify(ch)) if rep.choi_psd else None
    if args.dump_kraus:
        report["kraus"] = chan.channel_to_json(ch)["kraus"]
    _emit(args, report)
    return EXIT_OK if (rep.ok or args.no_validate) else EXIT_INVALID


def cmd_numax(args) -> int:
    ch, desc = _load_channel(args)
    cfg = _config(args)
    rep = opt.estimate_nu_p(ch, args.p, cfg)
    report = _head("numax", args, desc)
    report.update(
        {
            "p": rep.p,
            "direction": rep.direction,
            "best_value": rep.best_value,
            "best_trace_power": rep.best_trace_power,
            "best_restart": rep.best_restart,
            "n_restarts": cfg.restarts,
            "n_structured_seeds": rep.n_structured_seeds,
            "all_converged": bool(all(rep.converged)),
            "max_iterations": int(max(rep.iterations)),
            "monotonicity_violations": rep.monotonicity_violations,
            "guard_fallbacks": rep.guard_fallbacks,
            "extrapolations_rejected": rep.extrapolations_rejected,
            "best_input": _vec_json(rep.best_input),
            "config": rep.config,
            "tolerances": _tolerances(cfg),
        }
    )
    _emit(args, report)
    return EXIT_OK


def cmd_smin(args) -> int:
    ch, desc = _load_channel(args)
    cfg = _config(args)
    rep = entropy.estimate_smin_p(ch, args.p, cfg)
    report = _head("smin", args, desc)
    report.update(
        {
            "p": rep.p,
            "value": rep.value,
            "nu_value": rep.nu_value,
            "argmin": _vec_json(rep.argmin),
            "config": rep.config,
            "tolerances": _tolerances(cfg),
        }
    )
    _emit(args, report)
    return EXIT_OK


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


def cmd_multcheck(args) -> int:
    ch_a, desc_a, ch_b, desc_b = _load_pair(args)
    cfg = _config(args)
    r = opt.mult_check(ch_a, ch_b, args.p, cfg)
    report = _head("multcheck", args)
    report.update(
        {
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
            "tolerances": _tolerances(cfg, mult=True),
        }
    )
    _emit(args, report, csv_rows=[_mult_row(r)])
    return EXIT_OK


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


def cmd_multscan(args) -> int:
    ch_a, desc_a, ch_b, desc_b = _load_pair(args)
    cfg = _config(args)
    grid = _parse_p_grid(args.p_grid)
    scan = opt.mult_scan(ch_a, ch_b, grid, cfg, resolution=args.resolution)
    rows = [{**_mult_row(r), "decided_by": r.decided_by} for r in scan.rows]
    report = _head("multscan", args)
    report.update(
        {
            "channel_a": desc_a,
            "channel_b": desc_b,
            "p_grid": args.p_grid,
            "resolution": args.resolution,
            "rows": rows,
            "threshold": scan.threshold,
            "bracket": list(scan.bracket) if scan.bracket else None,
            "config": asdict(cfg),
            "tolerances": _tolerances(cfg, mult=True),
        }
    )
    _emit(args, report, csv_rows=rows)
    return EXIT_OK


def cmd_decompose(args) -> int:
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

    report = _head("decompose", args, desc)
    report.update(
        {
            "d_in": ch.d_in,
            "d_out": ch.d_out,
            "choi_rank": chan.choi_rank(ch),
            "mixture_residual": residual,
            "halves": halves,
            "tolerances": {"support_tol": dec.SUPPORT_TOL, "rank_tol": la.RANK_TOL},
        }
    )
    _emit(args, report)
    return EXIT_OK


def cmd_extremality(args) -> int:
    ch, desc = _load_channel(args)
    report = _head("extremality", args, desc)
    report.update(
        {
            "d_in": ch.d_in,
            "d_out": ch.d_out,
            "n_kraus": len(ch),
            "classification": asdict(chan.classify(ch)),
        }
    )
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
    _emit(args, report)
    return EXIT_OK


def cmd_complement(args) -> int:
    ch, desc = _load_channel(args)
    comp = chan.complement(chan._extremality(ch)[1])
    val = chan.validate_cpt(comp)
    report = _head("complement", args, desc)
    report.update(
        {
            "d_in": comp.d_in,
            "d_out": comp.d_out,
            "n_kraus": len(comp),
            "validation_ok": val.ok,
            "tp_residual": val.tp_residual,
            "channel_json": chan.channel_to_json(comp),
        }
    )
    _emit(args, report)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser assembly
# ---------------------------------------------------------------------------

def _build_parser() -> _Parser:
    common = _Parser(add_help=False)
    common.add_argument("--seed", type=int, default=0, help="seed for all randomness")
    common.add_argument(
        "--no-validate", action="store_true", help="skip the CPT validation gate"
    )
    common.add_argument(
        "--format", choices=("json", "csv", "text"), default="text"
    )
    common.add_argument("--output", metavar="FILE", help="write the report to FILE")

    defaults = opt.OptimizerConfig()
    optflags = _Parser(add_help=False)
    optflags.add_argument("--restarts", type=int, default=defaults.restarts)
    optflags.add_argument("--max-iters", type=int, default=defaults.max_iters)

    tensorflags = _Parser(add_help=False)
    tensorflags.add_argument(
        "--tensor-restarts", type=int, default=defaults.tensor_restarts
    )

    parser = _Parser(
        prog="cptwb",
        description="numerical workbench for finite-dimensional quantum channels",
    )
    parser.add_argument("--version", action="version", version=f"cptwb {__version__}")
    sub = parser.add_subparsers(dest="subcommand", metavar="COMMAND")

    p = sub.add_parser("info", parents=[common], help="validate and classify")
    _add_channel_source(p)
    p.add_argument("--dump-kraus", action="store_true")
    p.set_defaults(func=cmd_info)

    p = sub.add_parser(
        "numax", parents=[common, optflags], help="extremal output p-norm"
    )
    _add_channel_source(p)
    p.add_argument("--p", type=float, required=True)
    p.set_defaults(func=cmd_numax)

    p = sub.add_parser(
        "smin", parents=[common, optflags], help="minimal output Renyi entropy"
    )
    _add_channel_source(p)
    p.add_argument("--p", type=float, required=True)
    p.set_defaults(func=cmd_smin)

    p = sub.add_parser(
        "multcheck",
        parents=[common, optflags, tensorflags],
        help="multiplicativity check at one p",
    )
    _add_channel_source(p)
    _add_channel_source(p, suffix="b")
    p.add_argument("--p", type=float, required=True)
    p.set_defaults(func=cmd_multcheck)

    p = sub.add_parser(
        "multscan",
        parents=[common, optflags, tensorflags],
        help="threshold scan over Renyi orders",
    )
    _add_channel_source(p)
    _add_channel_source(p, suffix="b")
    p.add_argument(
        "--p-grid", required=True, metavar="START:STOP:STEP",
        help=f"stop included; at most {P_GRID_MAX} points",
    )
    p.add_argument("--resolution", type=float, default=0.01)
    p.set_defaults(func=cmd_multscan)

    p = sub.add_parser(
        "decompose",
        parents=[common],
        help="split a qubit-output channel into rank-bounded halves",
    )
    _add_channel_source(p)
    p.add_argument("--dump-kraus", action="store_true")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser(
        "extremality", parents=[common], help="extremality classification"
    )
    _add_channel_source(p)
    p.add_argument(
        "--perturb",
        type=float,
        metavar="EPS0",
        help="perturb a generalized-extreme channel to a true extreme point",
    )
    p.add_argument("--dump-kraus", action="store_true")
    p.set_defaults(func=cmd_extremality)

    p = sub.add_parser(
        "complement", parents=[common], help="emit the complementary channel"
    )
    _add_channel_source(p)
    p.set_defaults(func=cmd_complement)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if not hasattr(args, "func"):
            raise UsageError("missing subcommand (see cptwb --help)")
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
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
