"""End-to-end tests of the command line front end (in-process)."""

import argparse
import json
import signal

import numpy as np
import pytest

from cptwb import channels as chan
from cptwb import cli, optimize as opt, zoo


def run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# info
# ---------------------------------------------------------------------------

def test_info_json_on_family(capsys):
    code, out, err = run(
        ["info", "--family", "werner_holevo", "--dim", "3", "--format", "json"],
        capsys,
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["command"] == "info"
    assert rep["d_in"] == 3 and rep["d_out"] == 3 and rep["n_kraus"] == 3
    assert rep["validation"]["ok"] is True
    assert rep["validation"]["tp_residual"] < 1e-12
    assert rep["classification"]["choi_rank"] == 3
    assert rep["classification"]["is_extreme"] is True


def test_info_text_format(capsys):
    code, out, _ = run(["info", "--family", "depolarizing", "--dim", "2"], capsys)
    assert code == 0
    assert "validation.ok = true" in out
    assert "classification.choi_rank = 4" in out


def test_identical_invocations_identical_bytes(capsys):
    argv = ["numax", "--family", "fss_psi", "--p", "3", "--format", "json",
            "--restarts", "8"]
    _, out1, _ = run(argv, capsys)
    _, out2, _ = run(argv, capsys)
    assert out1 == out2


@pytest.mark.parametrize("argv", [
    ["numax", "--family", "near_depolarizing", "--dim", "3", "--epsilon", "0.1",
     "--p", "3", "--restarts", "12"],
    ["smin", "--family", "near_depolarizing", "--dim", "3", "--epsilon", "0.1",
     "--p", "1", "--restarts", "12"],
])
def test_reported_states_repeat_byte_for_byte(argv, capsys):
    # the p > 1 states get their phases fixed once, on the report
    code, out1, _ = run(argv, capsys)
    _, out2, _ = run(argv, capsys)
    assert code == 0 and out1 == out2
    assert "best_input = [[" in out1 or "argmin = [[" in out1


def test_info_flags_invalid_channel(tmp_path, capsys):
    bad = {
        "d_in": 2,
        "d_out": 2,
        "kraus": [[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]],
    }
    f = tmp_path / "bad.json"
    f.write_text(json.dumps(bad))
    code, out, _ = run(["info", "--input", str(f), "--format", "json"], capsys)
    assert code == 2
    rep = json.loads(out)  # the report is still emitted
    assert rep["validation"]["ok"] is False
    code, _, _ = run(
        ["info", "--input", str(f), "--no-validate", "--format", "json"], capsys
    )
    assert code == 0


@pytest.mark.parametrize("dims", [(True, True), (2, True)])
@pytest.mark.parametrize("flags", [[], ["--no-validate"]])
def test_info_rejects_non_integer_dimensions(dims, flags, tmp_path, capsys):
    # JSON booleans are Python ints; they are not dimensions
    f = tmp_path / "bool.json"
    f.write_text(json.dumps({"d_in": dims[0], "d_out": dims[1], "kraus": [[[[1.0, 0.0]]]]}))
    code, out, err = run(["info", "--input", str(f), *flags], capsys)
    assert code == 2 and out == ""
    assert "d_in and d_out must be positive integers" in err


@pytest.mark.parametrize("entry", [[True, 0.0], [float("nan"), 0.0], [1.0, float("inf")]])
@pytest.mark.parametrize("argv", [["info"], ["numax", "--no-validate", "--p", "3"]])
def test_kraus_file_with_bool_or_non_finite_entry_exits_2(entry, argv, tmp_path, capsys):
    kraus = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
    kraus[0][0] = entry
    f = tmp_path / "kraus.json"
    f.write_text(json.dumps({"d_in": 2, "d_out": 2, "kraus": [kraus]}))  # NaN, Infinity
    code, out, err = run([*argv, "--input", str(f)], capsys)
    assert code == 2 and out == ""
    assert "finite numbers" in err and "Traceback" not in err


@pytest.mark.parametrize("argv", [["info"], ["numax", "--p", "3"]])
def test_kraus_file_whose_products_overflow_exits_2(argv, tmp_path, capsys):
    # finite entries whose products overflow: the Choi matrix and the
    # outputs hold inf and NaN (numpy's overflow warnings are the input's)
    kraus = [[[1e200, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
    f = tmp_path / "kraus.json"
    f.write_text(json.dumps({"d_in": 2, "d_out": 2, "kraus": [kraus]}))
    with np.errstate(over="ignore", invalid="ignore"):
        code, out, err = run([*argv, "--no-validate", "--input", str(f)], capsys)
    assert code == 2 and out == ""
    assert "non-finite entry" in err


def test_numax_refuses_a_map_that_misses_trace_preservation_by_1e_6(tmp_path, capsys):
    wh3 = zoo.werner_holevo(3)
    ch = chan.KrausChannel.from_kraus([np.sqrt(1.0 + 1e-6) * a for a in wh3.kraus])
    f = tmp_path / "scaled.json"
    f.write_text(json.dumps(chan.channel_to_json(ch)))
    code, out, err = run(["numax", "--input", str(f), "--p", "3"], capsys)
    assert code == 2 and out == ""
    assert "failed CPT validation" in err and "Traceback" not in err


@pytest.mark.parametrize("p", ["3", "0.5"])
def test_numax_refuses_a_zero_trace_output(p, tmp_path, capsys):
    # not trace-preserving, so only --no-validate lets it in; e_1 maps to zero
    ch = chan.KrausChannel.from_kraus([np.diag([1.0, 0.0])])
    f = tmp_path / "zero.json"
    f.write_text(json.dumps(chan.channel_to_json(ch)))
    code, out, err = run(["numax", "--input", str(f), "--no-validate", "--p", p], capsys)
    assert code == 2 and out == ""
    assert "zero trace" in err and "Traceback" not in err


def test_numax_at_p_below_1_keeps_out_of_a_kernel_no_seed_reaches(tmp_path, capsys):
    # no seed of this map has a zero output, but its kernel holds e_0 - e_1
    ch = chan.KrausChannel.from_kraus([np.array([[1.0, 1.0], [0.0, 0.0]]) / np.sqrt(2)])
    f = tmp_path / "kernel.json"
    f.write_text(json.dumps(chan.channel_to_json(ch)))
    code, out, err = run(["numax", "--input", str(f), "--no-validate", "--p", "0.5"], capsys)
    assert code == 0 and out and err == ""


# ---------------------------------------------------------------------------
# usage errors
# ---------------------------------------------------------------------------

def test_usage_errors_exit_64(capsys):
    cases = [
        ["numax", "--p", "2"],  # no channel source
        ["numax", "--family", "depolarizing", "--dim", "2", "--input", "x.json",
         "--p", "2"],  # two sources
        ["frobnicate"],  # unknown subcommand
        ["numax", "--family", "depolarized_wh", "--dim", "3", "--p", "2"],  # no --x
        ["multscan", "--family", "depolarizing", "--dim", "2",
         "--p-grid", "2:1:0.5"],  # bad grid
        ["info", "--family", "depolarizing", "--dim", "2", "--format", "csv"],
    ]
    for argv in cases:
        code, _, err = run(argv, capsys)
        assert code == 64, argv
        assert err  # the reason lands on stderr


# The CLI surface, written out.  Every subcommand takes the common options
# (help, --seed, --no-validate, --format, --output and one channel source);
# each row lists its handler, its other options, its required options and
# the defaults of its optimizer and scan flags.
_SOURCE = ("--input", "--spec-file", "--family", "--dim", "--x", "--alpha", "--epsilon",
           "--unitaries-file")
_COMMON = ("-h", "--help", "--seed", "--no-validate", "--format", "--output", *_SOURCE)
_PAIR = tuple(f"{s}-b" for s in _SOURCE)
_SEARCH = {"--restarts": 50, "--max-iters": 500}
_TENSOR = {**_SEARCH, "--tensor-restarts": 200}
_SURFACE = {
    "info": (cli.cmd_info, ("--dump-kraus",), (), {}),
    "numax": (cli.cmd_numax, ("--p", *_SEARCH), ("--p",), _SEARCH),
    "smin": (cli.cmd_smin, ("--p", *_SEARCH), ("--p",), _SEARCH),
    "multcheck": (cli.cmd_multcheck, ("--p", *_PAIR, *_TENSOR), ("--p",), _TENSOR),
    "multscan": (
        cli.cmd_multscan,
        ("--p-grid", "--resolution", *_PAIR, *_TENSOR),
        ("--p-grid",),
        {**_TENSOR, "--resolution": 0.01},
    ),
    "decompose": (cli.cmd_decompose, ("--dump-kraus",), (), {}),
    "extremality": (cli.cmd_extremality, ("--perturb", "--dump-kraus"), (), {}),
    "complement": (cli.cmd_complement, (), (), {}),
}


def test_parser_surface_is_pinned():
    parser = cli._build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert list(sub.choices) == list(_SURFACE)
    tracked = ("--seed", "--restarts", "--max-iters", "--tensor-restarts", "--resolution",
               "--format")
    for name, (func, extra, required, defaults) in _SURFACE.items():
        actions = {s: a for a in sub.choices[name]._actions for s in a.option_strings}
        assert sorted(actions) == sorted(_COMMON + extra), name
        assert sorted(s for s, a in actions.items() if a.required) == sorted(required), name
        got = {s: actions[s].default for s in tracked if s in actions}
        assert got == {"--seed": 0, "--format": "text", **defaults}, name
        assert actions["--format"].choices == ("json", "csv", "text"), name
        assert [actions[s].nargs for s in actions if s.startswith("--alpha")] in ([2], [2, 2])
        assert sub.choices[name].get_default("func") is func, name


def test_missing_input_file_exits_2(capsys):
    code, _, err = run(["info", "--input", "/nonexistent/ch.json"], capsys)
    assert code == 2
    assert err


def test_csv_on_a_tableless_command_exits_64_before_loading(capsys):
    code, out, err = run(
        ["numax", "--input", "/nonexistent/ch.json", "--p", "2", "--format", "csv"],
        capsys,
    )
    assert code == 64
    assert out == ""
    assert "--format csv is only available" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["info", "--family", "depolarizing", "--dim", "2"],
        ["numax", "--family", "depolarizing", "--dim", "2", "--p", "2"],
        ["smin", "--family", "depolarizing", "--dim", "2", "--p", "2"],
        ["multcheck", "--family", "depolarizing", "--dim", "2", "--p", "2"],
        ["multscan", "--family", "depolarizing", "--dim", "2", "--p-grid", "2:2:1"],
        ["decompose", "--family", "depolarizing", "--dim", "2"],
        ["extremality", "--family", "identity", "--dim", "2"],
        ["complement", "--family", "identity", "--dim", "2"],
    ],
)
def test_every_report_opens_with_the_same_head(argv, capsys):
    mult = argv[0].startswith("mult")
    fast = ["--restarts", "2", "--tensor-restarts", "2"] if mult else []
    code, out, _ = run(argv + fast + ["--seed", "7", "--format", "json"], capsys)
    assert code == 0
    rep = json.loads(out)
    assert list(rep)[:3] == ["command", "version", "seed"]
    assert (rep["command"], rep["version"], rep["seed"]) == (argv[0], cli.__version__, 7)


# ---------------------------------------------------------------------------
# numax / smin
# ---------------------------------------------------------------------------

def test_numax_closed_form(capsys):
    code, out, _ = run(
        ["numax", "--family", "werner_holevo", "--dim", "3", "--p", "5",
         "--restarts", "8", "--format", "json"],
        capsys,
    )
    assert code == 0
    rep = json.loads(out)
    assert abs(rep["best_value"] - 2.0 ** (-4 / 5)) < 1e-9
    assert rep["direction"] == "max"
    assert rep["all_converged"] is True
    assert rep["monotonicity_violations"] == 0


def test_numax_reports_extrapolation_rejections(tmp_path, capsys):
    # near p = 1 the power residual of a random channel contracts slowly, and
    # some of the extrapolations it allows are still turned down
    ch = zoo.random_channel(3, 3, 2, seed=700)
    path = tmp_path / "ch.json"
    path.write_text(json.dumps(chan.channel_to_json(ch)))
    code, out, _ = run(
        ["numax", "--input", str(path), "--p", "1.01", "--restarts", "12",
         "--format", "json"],
        capsys,
    )
    assert code == 0
    rep = json.loads(out)
    keys = list(rep)
    assert keys.index("extrapolations_rejected") == keys.index("guard_fallbacks") + 1
    lib = opt.estimate_nu_p(ch, 1.01, opt.OptimizerConfig(**rep["config"]))
    assert rep["extrapolations_rejected"] == lib.extrapolations_rejected > 0


@pytest.mark.parametrize(
    "p, max_iters, tally",
    [
        # every run ends on a guard rejection, which all_converged counts
        ("0.5", "500", {"converged": 0, "guard_stall": 12, "max_iters": 0}),
        ("3", "500", {"converged": 12, "guard_stall": 0, "max_iters": 0}),
        ("3", "2", {"converged": 0, "guard_stall": 0, "max_iters": 12}),
    ],
)
def test_numax_tallies_how_the_runs_ended(p, max_iters, tally, tmp_path, capsys):
    ch = zoo.random_channel(4, 4, 3, seed=0)
    path = tmp_path / "ch.json"
    path.write_text(json.dumps(chan.channel_to_json(ch)))
    argv = ["numax", "--input", str(path), "--p", p, "--restarts", "12",
            "--max-iters", max_iters, "--format", "json"]
    code, out, _ = run(argv, capsys)
    assert code == 0
    rep = json.loads(out)
    keys = list(rep)
    assert keys.index("statuses") == keys.index("all_converged") + 1
    assert rep["statuses"] == tally
    assert rep["all_converged"] is (tally["max_iters"] == 0)
    lib = opt.estimate_nu_p(ch, float(p), opt.OptimizerConfig(**rep["config"]))
    assert sum(rep["statuses"].values()) == len(lib.statuses) == 12
    assert all(lib.statuses.count(s) == n for s, n in tally.items())
    _, again, _ = run(argv, capsys)
    assert again == out


def test_smin_transpose_shift_channel(capsys):
    code, out, _ = run(
        ["smin", "--family", "fss_psi", "--p", "1", "--restarts", "10",
         "--format", "json"],
        capsys,
    )
    assert code == 0
    rep = json.loads(out)
    want = np.log(3) - (2 / 3) * np.log(2)
    assert abs(rep["value"] - want) < 1e-6
    assert rep["nu_value"] is None and "extrapolated" not in rep


def test_smin_p0_reports_log_min_rank(capsys):
    code, out, _ = run(
        ["smin", "--family", "fss_psi", "--p", "0", "--restarts", "10",
         "--format", "json"],
        capsys,
    )
    assert code == 0
    rep = json.loads(out)
    assert abs(rep["value"] - np.log(2)) < 1e-12


# ---------------------------------------------------------------------------
# multcheck / multscan
# ---------------------------------------------------------------------------

def test_multcheck_csv_contract(capsys):
    code, out, _ = run(
        ["multcheck", "--family", "werner_holevo", "--dim", "3", "--p", "5",
         "--restarts", "8", "--tensor-restarts", "12", "--format", "csv"],
        capsys,
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "p,nu_a,nu_b,nu_ab_lb,gap,violated"
    assert len(lines) == 2
    fields = lines[1].split(",")
    assert fields[0] == "5"
    assert fields[5] == "true"
    assert abs(float(fields[1]) - 2.0 ** (-4 / 5)) < 1e-9


def test_infinite_order_exits_2(capsys):
    code, out, err = run(
        ["multcheck", "--family", "werner_holevo", "--dim", "3", "--p", "inf",
         "--restarts", "2", "--tensor-restarts", "2"],
        capsys,
    )
    assert code == 2
    assert out == ""
    assert "finite p" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [["numax", "--p", "1e-320"], ["smin", "--p", "1e-320"], ["multcheck", "--p", "1e-320"],
     ["multscan", "--p-grid", "1e-320:1e-320:1"]],
)
def test_an_order_whose_reciprocal_overflows_exits_2(argv, capsys):
    # 1/1e-320 is inf: the reported norm would read Infinity and the gap NaN
    code, out, err = run(
        [*argv, "--family", "werner_holevo", "--dim", "3", "--restarts", "2",
         "--format", "json"],
        capsys,
    )
    assert code == 2
    assert out == ""
    assert "1/p" in err and "Traceback" not in err


def test_a_small_order_with_a_finite_reciprocal_still_runs(capsys):
    code, out, _ = run(
        ["numax", "--family", "werner_holevo", "--dim", "3", "--p", "1e-3",
         "--restarts", "2", "--format", "json"],
        capsys,
    )
    assert code == 0
    assert "Infinity" not in out and "NaN" not in out
    # every pure input of WH(3) is optimal: nu_p = 2^((1 - p)/p)
    assert json.loads(out)["best_value"] == pytest.approx(2.0**999, rel=1e-9)


def test_a_norm_out_of_float_range_exits_3_naming_the_order(capsys):
    code, out, err = run(
        ["numax", "--family", "werner_holevo", "--dim", "3", "--p", "1e-4",
         "--restarts", "2"],
        capsys,
    )
    assert code == 3
    assert out == ""
    assert err.startswith("numerical error:") and "Traceback" not in err
    assert "p = 0.0001" in err and "Tr Γ^p" in err


@pytest.mark.parametrize("command", ["numax", "smin", "multcheck"])
def test_a_trace_power_that_underflows_exits_3_naming_the_order(command, capsys):
    # every pure input of WH3 has output spectrum (1/2, 1/2, 0), and
    # Tr Γ^2000 = 2^-1999 is 0 in floats
    code, out, err = run(
        [command, "--family", "werner_holevo", "--dim", "3", "--p", "2000", "--restarts", "2"],
        capsys,
    )
    assert code == 3
    assert out == ""
    assert err.startswith("numerical error:") and "Traceback" not in err
    assert "p = 2000.0" in err and "Tr Γ^p = 0.0" in err


def test_a_trace_power_just_above_the_least_normal_float_is_reported(capsys):
    code, out, _ = run(["numax", "--family", "werner_holevo", "--dim", "3", "--p", "1000"], capsys)
    assert code == 0
    assert "best_trace_power = 1.86652723701e-301\n" in out
    assert "best_value = 0.500346693731\n" in out


def test_every_flag_has_help_text():
    parser = cli._build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    for name, command in sub.choices.items():
        for action in command._actions:
            assert action.help, (name, action.option_strings)
    tensor = {s: a for a in sub.choices["multscan"]._actions for s in a.option_strings}
    assert "32 fresh Haar seeds" in tensor["--tensor-restarts"].help


def test_running_out_of_memory_exits_3(capsys, monkeypatch):
    # a real huge dimension may be overcommitted and then hang, so the
    # allocation failure is injected into the CPT check that info runs
    def no_memory(ch):
        raise MemoryError()

    monkeypatch.setattr(chan, "validate_cpt", no_memory)
    code, out, err = run(["info", "--family", "depolarizing", "--dim", "2"], capsys)
    assert code == 3
    assert out == ""
    assert err == "numerical error: out of memory.\n"


@pytest.mark.parametrize("max_iters", ["0", "-5"])
def test_multcheck_without_iterations_exits_2(max_iters, capsys):
    code, out, err = run(
        ["multcheck", "--family", "werner_holevo", "--dim", "3", "--p", "5",
         "--max-iters", max_iters],
        capsys,
    )
    assert code == 2
    assert out == ""
    assert "max_iters" in err and "Traceback" not in err


def test_multscan_grid_parsing_inclusive(capsys):
    code, out, _ = run(
        ["multscan", "--family", "identity", "--dim", "2",
         "--p-grid", "1.5:2.5:0.5", "--restarts", "4", "--tensor-restarts", "4",
         "--format", "json"],
        capsys,
    )
    assert code == 0
    rep = json.loads(out)
    assert [row["p"] for row in rep["rows"]] == [1.5, 2.0, 2.5]
    assert rep["threshold"] is None
    assert all(row["violated"] is False for row in rep["rows"])


@pytest.mark.parametrize("grid", ["4.5:5:nan", "4.5:inf:0.1", "1:5:1e-12"])
def test_runaway_p_grid_exits_64_before_it_is_built(grid, capsys):
    # built point by point, these grids would fill memory; the CPU-time alarm
    # stops such a regression early, and the check itself takes microseconds
    def built(signum, frame):
        raise AssertionError(f"--p-grid {grid} was built point by point")

    old = signal.signal(signal.SIGPROF, built)
    signal.setitimer(signal.ITIMER_PROF, 0.25)
    try:
        code, out, err = run(
            ["multscan", "--family", "identity", "--dim", "2", "--p-grid", grid],
            capsys,
        )
    finally:
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, old)
    assert code == 64
    assert out == "" and "--p-grid" in err


def test_p_grid_point_limit_is_exact():
    assert len(cli._parse_p_grid("0:0.9999:0.0001")) == cli.P_GRID_MAX
    with pytest.raises(cli.UsageError, match="more than"):
        cli._parse_p_grid("0:1:0.0001")


def test_multscan_non_positive_resolution_exits_2(capsys):
    code, out, err = run(
        ["multscan", "--family", "identity", "--dim", "2",
         "--p-grid", "1.5:2.5:0.5", "--resolution", "0"],
        capsys,
    )
    assert code == 2
    assert out == "" and "resolution" in err


def test_multscan_rows_record_how_each_verdict_was_reached(capsys):
    argv = ["multscan", "--family", "werner_holevo", "--dim", "3",
            "--p-grid", "4.5:5.0:0.5", "--restarts", "8", "--tensor-restarts", "12",
            "--resolution", "0.1", "--format", "json"]
    code, out, _ = run(argv, capsys)
    assert code == 0
    assert run(argv, capsys)[1] == out
    rep = json.loads(out)
    # the threshold sits between the checks beside the gap curve's root
    assert rep["placed_by"] == "gap_root" and rep["gap_evaluations"] >= 3
    assert len(rep["rows"]) == 4
    rows = rep["rows"]
    decided = {r["p"]: r["decided_by"] for r in rows}
    assert decided[4.5] == decided[5.0] == "search"  # no certificate yet
    assert set(decided.values()) == {"search", "certificate"}
    assert all(r["violated"] for r in rows if r["decided_by"] == "certificate")
    # 12 tensor restarts are all structured seeds, so no search is continued
    assert all(r["continued"] == r["fresh"] == 0 for r in rows)


def test_multscan_rows_count_continued_and_fresh_restarts(capsys):
    code, out, _ = run(
        ["multscan", "--family", "werner_holevo", "--dim", "3", "--p-grid", "4.5:5.0:0.5",
         "--format", "json"],
        capsys,
    )
    assert code == 0
    counts = [(r["continued"], r["fresh"]) for r in json.loads(out)["rows"]]
    # the gap root's lower check continues from the p = 4.5 row
    assert counts == [(0, 0), (86, 32), (0, 0), (0, 0)]


def test_multcheck_second_channel_flags(capsys):
    code, out, _ = run(
        ["multcheck", "--family", "werner_holevo", "--dim", "3",
         "--family-b", "identity", "--dim-b", "3", "--p", "3",
         "--restarts", "6", "--tensor-restarts", "8", "--format", "json"],
        capsys,
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["channel_b"]["family"] == "identity"
    assert rep["violated"] is False


# ---------------------------------------------------------------------------
# decompose / extremality / complement
# ---------------------------------------------------------------------------

def test_decompose_round_trip(tmp_path, capsys):
    phi = zoo.random_channel(3, 2, 5, seed=21)
    f = tmp_path / "ch.json"
    f.write_text(json.dumps(chan.channel_to_json(phi)))
    code, out, _ = run(
        ["decompose", "--input", str(f), "--dump-kraus", "--format", "json"],
        capsys,
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["mixture_residual"] < 1e-9
    assert len(rep["halves"]) == 2
    for half in rep["halves"]:
        assert half["choi_rank"] <= 3
        assert half["generalized_extreme"] is True
        assert half["tp_residual"] < 1e-8
        # dumped Kraus operators rebuild the half exactly
        rebuilt = chan.channel_from_json(
            {"d_in": 3, "d_out": 2, "kraus": half["kraus"]}, validate=False
        )
        j = chan.kraus_to_choi(rebuilt).matrix
        from cptwb import linalg as la

        want = la.matrix_from_json(half["choi"])
        assert np.abs(j - want).max() < 1e-12


def _count_eighs(monkeypatch) -> list:
    """Record the shape of every ``np.linalg.eigh`` call."""
    eighs, eigh = [], np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: eighs.append(a.shape) or eigh(a))
    return eighs


@pytest.mark.parametrize("dump", [[], ["--dump-kraus"]])
def test_decompose_decomposes_each_choi_matrix_once(dump, tmp_path, capsys, monkeypatch):
    # the input's Choi matrix, once for validation, the split's PSD gate and
    # the input's rank; the stack of the split's two diagonal blocks; each
    # half, once for its rank, least eigenvalue and Kraus set
    f = tmp_path / "ch.json"
    f.write_text(json.dumps(chan.channel_to_json(zoo.random_channel(3, 2, 4, seed=1))))
    eighs = _count_eighs(monkeypatch)
    code, _, _ = run(["decompose", "--input", str(f), *dump], capsys)
    assert code == 0
    assert eighs == [(6, 6), (2, 3, 3), (6, 6), (6, 6)]


def _mixture_file(tmp_path):
    """Channel JSON of an even mixture of two d = 3 unitaries (Choi rank 2)."""
    from cptwb._rng import haar_unitary, rng_from

    rng = rng_from(77)
    u1, u2 = haar_unitary(3, rng), haar_unitary(3, rng)
    mix = chan.KrausChannel.from_kraus([u1 / np.sqrt(2), u2 / np.sqrt(2)])
    f = tmp_path / "mix.json"
    f.write_text(json.dumps(chan.channel_to_json(mix)))
    return str(f)


@pytest.mark.parametrize(
    "argv, want",
    [
        # the input's Choi matrix once, for validation and classification
        (["info"], [(9, 9)]),
        (["extremality"], [(9, 9)]),
        # then S(ε) and the accepted candidate's Choi matrix, which also
        # answers the report's is_extreme
        (["extremality", "--perturb", "0.1"], [(9, 9), (3, 3), (9, 9)]),
        # the input's (its Kraus set is minimal), then the 3 → 2 complement's
        (["complement"], [(9, 9), (6, 6)]),
    ],
)
def test_choi_commands_decompose_each_choi_matrix_once(argv, want, tmp_path, capsys, monkeypatch):
    f = _mixture_file(tmp_path)
    eighs = _count_eighs(monkeypatch)
    code, _, _ = run([argv[0], "--input", f, *argv[1:]], capsys)
    assert code == 0
    assert eighs == want


def test_decompose_checks_hermiticity_three_times(tmp_path, capsys, monkeypatch):
    # the input's Choi matrix, built once, and the two halves; the split's
    # permuted matrix is not checked again
    from cptwb import linalg as la

    f = tmp_path / "ch.json"
    f.write_text(json.dumps(chan.channel_to_json(zoo.random_channel(3, 2, 4, seed=1))))
    checks, herm = [], la._hermitian_part
    monkeypatch.setattr(la, "_hermitian_part", lambda a, what: checks.append(what) or herm(a, what))
    code, _, _ = run(["decompose", "--input", str(f)], capsys)
    assert code == 0
    assert checks == ["Choi matrix"] * 3


def test_extremality_with_perturbation(tmp_path, capsys):
    # an even mixture of two unitaries: Choi rank 2 <= 3, never extreme
    code, out, _ = run(
        ["extremality", "--input", _mixture_file(tmp_path),
         "--perturb", "0.1", "--dump-kraus", "--format", "json"],
        capsys,
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["classification"]["is_extreme"] is False
    pert = rep["perturbation"]
    assert pert["is_extreme"] is True
    assert pert["choi_distance"] > 0
    moved = chan.channel_from_json(pert["channel"])
    assert chan.is_extreme(moved)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_extremality_rejects_non_finite_perturbation(value, tmp_path, capsys):
    code, out, err = run(
        ["extremality", "--input", _mixture_file(tmp_path), f"--perturb={value}"], capsys
    )
    assert code == 2
    assert out == "" and "epsilon0" in err


def test_extremality_rejects_high_rank_perturbation(capsys):
    # depolarizing has Choi rank d^2 > d: perturbation must refuse (exit 2)
    code, _, err = run(
        ["extremality", "--family", "depolarizing", "--dim", "2",
         "--perturb", "0.1"],
        capsys,
    )
    assert code == 2
    assert err


def test_complement_emits_valid_channel(capsys):
    code, out, _ = run(
        ["complement", "--family", "identity", "--dim", "3", "--format", "json"],
        capsys,
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["d_out"] == 1
    comp = chan.channel_from_json(rep["channel_json"])
    assert comp.d_out == 1


# ---------------------------------------------------------------------------
# sourcing and output plumbing
# ---------------------------------------------------------------------------

def test_spec_file_source(tmp_path, capsys):
    spec = zoo.ChannelSpec("depolarized_wh", d=3, x=0.25)
    f = tmp_path / "spec.json"
    f.write_text(json.dumps(spec.to_json()))
    code, out, _ = run(["info", "--spec-file", str(f), "--format", "json"], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["d_in"] == 3
    assert rep["validation"]["ok"] is True


def test_unitaries_file_source(tmp_path, capsys):
    from cptwb import linalg as la

    mats = zoo.cycle_window_unitaries(4, [(1, 2, 3), (1, 3, 4), (1, 4, 2), (2, 4, 3)])
    f = tmp_path / "unitaries.json"
    f.write_text(json.dumps([la.matrix_to_json(m) for m in mats]))
    code, out, _ = run(
        ["info", "--family", "shift_subunitary", "--dim", "4",
         "--unitaries-file", str(f), "--format", "json"],
        capsys,
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["validation"]["ok"] is True
    assert rep["classification"]["choi_rank"] == 4


@pytest.mark.parametrize(
    "argv, want",
    [
        (["identity", "--dim", "3"], {"d": 3}),
        (["depolarizing", "--dim", "2", "--x", "0.5"], {"d": 2}),
        (["depolarized_wh", "--dim", "3", "--x", "0.25"], {"d": 3, "x": 0.25}),
        (["fss_psi"], {}),
        (["shift_subunitary", "--dim", "4", "--seed", "7"], {"d": 4, "seed": 7}),
        (["shift_subunitary", "--dim", "4", "--unitaries-file", "UNITARIES"],
         {"d": 4, "unitaries": "UNITARIES"}),
        (["qubit_generalized_extreme", "--alpha", "0.3", "0.8", "--dim", "3"],
         {"alpha": [0.3, 0.8], "seed": 0, "d_out": 3}),
        (["near_depolarizing", "--dim", "3", "--epsilon", "0.001", "--x", "0.2"],
         {"d": 3, "epsilon": 0.001, "seed": 0, "x": 0.2}),
    ],
)
def test_family_flags_record_params(argv, want, tmp_path, capsys):
    # the recorded params, key order included, are part of the report bytes
    from cptwb import linalg as la

    mats = zoo.cycle_window_unitaries(4, [(1, 2, 3), (1, 3, 4), (1, 4, 2), (2, 4, 3)])
    unitaries = [la.matrix_to_json(m) for m in mats]
    f = tmp_path / "unitaries.json"
    f.write_text(json.dumps(unitaries))
    argv = [str(f) if a == "UNITARIES" else a for a in argv]
    want = {k: unitaries if v == "UNITARIES" else v for k, v in want.items()}
    code, out, _ = run(["info", "--family", *argv, "--format", "json"], capsys)
    assert code == 0
    params = json.loads(out)["channel"]["params"]
    assert list(params.items()) == list(want.items())


@pytest.mark.parametrize(
    "spec",
    [
        {"family": "identity", "params": [3]},
        {"family": "identity", "params": {"d": None}},
        {"family": "identity", "params": {"d": 3.7}},
        {"family": "depolarized_wh", "params": {"d": 3}},  # no x
    ],
)
def test_malformed_spec_file_exits_2(spec, tmp_path, capsys):
    f = tmp_path / "spec.json"
    f.write_text(json.dumps(spec))
    code, out, err = run(["info", "--spec-file", str(f)], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["near_depolarizing", "--dim", "3", "--epsilon", "nan"],
        ["near_depolarizing", "--dim", "3", "--epsilon", "inf"],
        ["qubit_generalized_extreme", "--alpha", "nan", "0.5", "--dim", "3"],
    ],
)
def test_non_finite_family_params_exit_2(argv, capsys):
    code, out, err = run(["info", "--family", *argv], capsys)
    assert code == 2
    assert out == ""
    assert "expected a finite number" in err and "Traceback" not in err


def test_output_file_matches_stdout(tmp_path, capsys):
    argv = ["info", "--family", "fss_psi", "--format", "json"]
    _, out, _ = run(argv, capsys)
    dest = tmp_path / "report.json"
    code, out2, _ = run(argv + ["--output", str(dest)], capsys)
    assert code == 0
    assert out2 == ""
    assert dest.read_text() == out


@pytest.mark.parametrize("where", ["missing directory", "directory"])
def test_unwritable_output_exits_2_before_the_command(where, tmp_path, capsys, monkeypatch):
    def no_check(*args, **kwargs):
        raise AssertionError("mult_check reached")

    monkeypatch.setattr(opt, "mult_check", no_check)
    dest = "/nonexistent/dir/out.txt" if where == "missing directory" else str(tmp_path)
    code, out, err = run(
        ["multscan", "--family", "werner_holevo", "--dim", "3", "--p-grid", "4:5:0.25",
         "--output", dest],
        capsys,
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: --output") and "Traceback" not in err


def test_output_is_neither_created_nor_truncated_before_the_command(tmp_path, capsys):
    # the check reads the destination; only a finished report writes it
    argv = ["numax", "--input", "/nonexistent/ch.json", "--p", "2", "--output"]
    new, kept = tmp_path / "new.txt", tmp_path / "kept.txt"
    kept.write_text("earlier report\n")
    for dest in (new, kept):
        code, _, _ = run([*argv, str(dest)], capsys)
        assert code == 2
    assert not new.exists()
    assert kept.read_text() == "earlier report\n"
