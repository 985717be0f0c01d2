"""Command-line surface: reports, evaluate/diff output, sweep CSV shape."""

import hashlib
import re

import pytest

from padesr.cli import SWEEP_HEADER, main, parse_report


def run_cli(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as stop:  # argparse usage errors
        code = stop.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# evaluate


def test_evaluate_trivial_gate(capsys):
    code, out, _ = run_cli(
        capsys, "evaluate", "--case", "case1", "--notation", "prefix",
        "--expr", "1",
    )
    fields = parse_report(out)
    assert code == 0
    assert fields["gate"] == "rejected"
    assert fields["mse_total"] == "inf"


def test_evaluate_ic_initial_component_zero(capsys):
    code, out, _ = run_cli(
        capsys, "evaluate", "--case", "case1", "--notation", "prefix",
        "--expr", "I", "--threshold", "0",
    )
    fields = parse_report(out)
    assert code == 0
    assert fields["gate"] == "pass"
    assert float(fields["mse_initial"]) == 0.0
    assert float(fields["mse_interior"]) > 0


def test_evaluate_ic_derivatives_data(capsys):
    # as a zero-derivative column, I solves the equation and every condition
    argv = ("evaluate", "--case", "case1", "--notation", "prefix", "--expr", "I")
    code, out, _ = run_cli(capsys, *argv, "--threshold", "0", "--ic-derivatives", "data")
    fields = parse_report(out)
    assert code == 0
    assert fields["ic_derivatives"] == "data"
    assert float(fields["mse_interior"]) == 0.0
    assert float(fields["mse_boundary_1"]) == 0.0
    code, out, _ = run_cli(capsys, *argv, "--ic-derivatives", "data")
    assert parse_report(out)["gate"] == "rejected"
    code, out, _ = run_cli(capsys, *argv, "--threshold", "0")
    assert parse_report(out)["ic_derivatives"] == "analytic"


def test_evaluate_breakdown_matches_api(capsys, case1, alpha1):
    from padesr.expr import Notation, parse as parse_expr
    from padesr.pde import ObjectiveConfig, objective

    code, out, _ = run_cli(
        capsys, "evaluate", "--case", "case1", "--notation", "postfix",
        "--expr", "x y + t sech *", "--threshold", "0",
    )
    assert code == 0
    fields = parse_report(out)
    case, data = case1
    e = parse_expr("x y + t sech *", Notation.POSTFIX, alpha1)
    bd = objective(e, case, data, config=ObjectiveConfig(threshold=0.0))
    assert float(fields["mse_total"]) == bd.total
    assert float(fields["mse_interior"]) == bd.interior
    assert float(fields["mse_boundary_3"]) == bd.boundary[2]


def test_evaluate_parse_error_exit_2(capsys):
    code, _, err = run_cli(
        capsys, "evaluate", "--case", "case1", "--notation", "prefix",
        "--expr", "+ x bogus",
    )
    assert code == 2
    assert "token 3" in err


def test_evaluate_mesh_of_two_axes_exit_2(capsys):
    code, _, err = run_cli(
        capsys, "evaluate", "--case", "case1", "--notation", "postfix",
        "--expr", "x", "--mesh", "10,10",
    )
    assert code == 2
    assert "mesh must be nx,ny,nt" in err


def test_evaluate_binding(capsys):
    code, out, _ = run_cli(
        capsys, "evaluate", "--case", "case1", "--notation", "prefix",
        "--expr", "+ y_0 x", "--bind", "y_0=-1.1", "--threshold", "0",
    )
    assert code == 0
    assert parse_report(out)["gate"] == "pass"
    code, _, err = run_cli(
        capsys, "evaluate", "--case", "case1", "--notation", "prefix",
        "--expr", "+ y_0 x",
    )
    assert code == 2


# ---------------------------------------------------------------------------
# diff


def test_diff_examples(capsys):
    code, out, _ = run_cli(
        capsys, "diff", "--expr", "sin x", "--notation", "prefix", "--wrt", "x",
    )
    assert code == 0
    assert out.splitlines()[0] == "cos x"

    code, out, _ = run_cli(
        capsys, "diff", "--expr", "I", "--notation", "prefix", "--wrt", "t",
    )
    assert out.splitlines()[0] == "0"

    code, out, _ = run_cli(
        capsys, "diff", "--expr", "x y *", "--notation", "postfix", "--wrt", "y",
    )
    assert out.splitlines()[0] == "x"


def test_diff_second_order(capsys):
    code, out, _ = run_cli(
        capsys, "diff", "--expr", "I", "--notation", "prefix", "--wrt", "x",
        "--order", "2",
    )
    assert code == 0
    assert out.splitlines()[0] == "I_xx"


@pytest.mark.parametrize("notation,text", [
    ("prefix", "+ I_xx I_yy"),
    ("postfix", "I_xx I_yy +"),
], ids=["prefix", "postfix"])
def test_diff_order_error_exit_2(capsys, notation, text):
    # both leaves exceed the stored order; the first in token order is named
    code, _, err = run_cli(
        capsys, "diff", "--expr", text, "--notation", notation, "--wrt", "x",
    )
    assert code == 2
    assert "order" in err
    assert "I_xx" in err and "I_yy" not in err


# ---------------------------------------------------------------------------
# search


def test_search_report_roundtrip(tmp_path, capsys):
    out_path = tmp_path / "report.txt"
    code, _, err = run_cli(
        capsys, "search", "--case", "case1", "--algo", "rs", "--depth", "1",
        "--notation", "postfix", "--tokens", "vars+const", "--threads", "1",
        "--time", "30", "--seed", "5", "--max-evals", "60", "--threshold", "0",
        "--out", str(out_path),
    )
    assert code == 0
    fields = parse_report(out_path.read_text())
    assert fields["status"] == "ok"
    assert fields["algorithm"] == "rs"
    assert int(fields["evaluations"]) >= 1
    # the reported expression re-evaluates to the reported total, a finite one
    code, out, _ = run_cli(
        capsys, "evaluate", "--case", "case1", "--notation", "postfix",
        "--expr", fields["best_tokens"], "--threshold", "0",
    )
    assert parse_report(out)["mse_total"] == fields["mse_total"] != "inf"


def test_search_depth0_best_is_leaf(tmp_path, capsys):
    out_path = tmp_path / "r.txt"
    code, _, _ = run_cli(
        capsys, "search", "--case", "case1", "--algo", "rs", "--depth", "0",
        "--notation", "prefix", "--time", "30", "--seed", "1",
        "--max-evals", "40", "--threshold", "0", "--out", str(out_path),
    )
    assert code == 0
    fields = parse_report(out_path.read_text())
    assert " " not in fields["best_tokens"]


def test_search_seed_expr_sa(tmp_path, capsys):
    out_path = tmp_path / "r.txt"
    code, _, _ = run_cli(
        capsys, "search", "--case", "case1", "--algo", "sa", "--depth", "2",
        "--notation", "postfix", "--time", "30", "--seed", "2",
        "--max-evals", "80", "--threshold", "0",
        "--seed-expr", "I t sech *", "--out", str(out_path),
    )
    assert code == 0
    fields = parse_report(out_path.read_text())
    seed_code, seed_out, _ = run_cli(
        capsys, "evaluate", "--case", "case1", "--notation", "postfix",
        "--expr", "I t sech *", "--threshold", "0",
    )
    seed_total = float(parse_report(seed_out)["mse_total"])
    assert float(fields["mse_total"]) <= seed_total


@pytest.mark.parametrize("tokens, seed_expr", [
    ("vars", "x 2 * C +"),  # a literal and a learnable constant outside the run's tokens
    ("vars+const", "x C *"),
    ("vars+const", "x 0.5 *"),  # free-mode spellings are no search token either
    ("vars+const", "I_x t +"),
])
def test_search_seed_expr_outside_token_set_exit_2(tmp_path, capsys, tokens, seed_expr):
    out_path = tmp_path / "r.txt"
    code, out, err = run_cli(
        capsys, "search", "--case", "case1", "--algo", "sa", "--depth", "2",
        "--notation", "postfix", "--tokens", tokens, "--max-evals", "30",
        "--threshold", "0", "--seed-expr", seed_expr, "--out", str(out_path),
    )
    assert code == 2
    assert not out
    assert "error: seed expression" in err
    assert not out_path.exists()


def test_fitted_constants_rescore_exactly(tmp_path, capsys):
    out_path = tmp_path / "r.txt"
    code, _, _ = run_cli(
        capsys, "search", "--case", "case1", "--algo", "rs", "--depth", "2",
        "--notation", "postfix", "--tokens", "vars+const+opt", "--threads", "1",
        "--time", "60", "--seed", "8", "--max-evals", "60", "--threshold", "0",
        "--out", str(out_path),
    )
    assert code == 0
    fields = parse_report(out_path.read_text())
    code, out, _ = run_cli(
        capsys, "evaluate", "--case", "case1", "--notation", "postfix",
        "--expr", fields["best_bound_tokens"], "--threshold", "0",
    )
    assert code == 0
    assert parse_report(out)["mse_total"] == fields["mse_total"]


def test_search_missing_required_exit_2(capsys):
    code, _, err = run_cli(capsys, "search", "--case", "case1")
    assert code == 2
    assert "missing" in err


def test_search_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "case=case1\nalgo=rs\ndepth=2\nnotation=postfix\ntokens=vars\n"
        "time=30\nseed=9\nmax-evals=30\n"
    )
    out_path = tmp_path / "r.txt"
    code, _, _ = run_cli(
        capsys, "search", "--config", str(cfg), "--depth", "1",
        "--out", str(out_path),
    )
    assert code == 0
    fields = parse_report(out_path.read_text())
    assert fields["depth"] == "1"  # flag overrides file
    assert fields["tokens"] == "vars"


def test_search_bad_config_value_exit_2(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("case=case1\nalgo=rs\ndepth=lots\nnotation=postfix\n")
    code, _, err = run_cli(capsys, "search", "--config", str(cfg))
    assert code == 2
    assert "bad option value" in err


def test_search_max_evals_zero_scores_nothing(tmp_path, capsys):
    out_path = tmp_path / "r.txt"
    code, _, _ = run_cli(
        capsys, "search", "--case", "case1", "--algo", "rs", "--depth", "2",
        "--notation", "postfix", "--time", "2", "--max-evals", "0",
        "--out", str(out_path),
    )
    assert code == 0
    fields = parse_report(out_path.read_text())
    assert fields["evaluations"] == "0"
    assert fields["status"] == "no-evaluations"


def test_search_without_a_finite_total_says_so(capsys):
    # at depth 1 over x, y, t and I every candidate is gated out or scores
    # inf, so the best of the run is no solution and the report says so
    code, out, err = run_cli(
        capsys, "search", "--case", "case1", "--algo", "rs", "--depth", "1",
        "--notation", "postfix", "--tokens", "vars", "--seed", "9", "--max-evals", "30",
        "--threads", "1",
    )
    assert code == 0
    fields = parse_report(out)
    assert fields["evaluations"] == "30"
    assert fields["mse_total"] == "inf"
    assert fields["status"] == "no-finite-candidate"
    assert "no candidate scored a finite total" in err
    assert "best mse_total" not in err


SEARCH_ARGV = ("search", "--case", "case1", "--algo", "rs", "--depth", "1",
               "--notation", "postfix", "--time", "5", "--max-evals", "5")
SWEEP_ARGV = ("sweep", "--case", "case1", "--algos", "rs", "--depths", "1",
              "--notations", "postfix", "--token-sets", "vars", "--max-evals", "5")
EVALUATE_ARGV = ("evaluate", "--case", "case1", "--notation", "postfix", "--expr", "x y * t *",
                 "--mesh", "10,10,10", "--ic-derivatives", "analytic", "--threshold", "0")


@pytest.mark.parametrize("argv", [
    SEARCH_ARGV + ("--threads", "0"),
    SEARCH_ARGV + ("--time", "0"),
    SEARCH_ARGV + ("--depth", "-1"),
    SEARCH_ARGV + ("--mesh", "10,10,1"),
    SEARCH_ARGV + ("--seed-expr", "x"),  # only sa reads a seed expression
    SEARCH_ARGV + ("--threshold=nan",),  # mean < nan is False: the gate would never reject
    SEARCH_ARGV + ("--threshold=-1",),
    EVALUATE_ARGV + ("--threshold=nan",),
    EVALUATE_ARGV + ("--threshold=-0.5",),
    SWEEP_ARGV + ("--threads", "0"),
    SWEEP_ARGV + ("--time-per-config", "0"),
    SWEEP_ARGV + ("--depths", "-1"),
    SWEEP_ARGV + ("--mesh", "10,10,1"),
    SWEEP_ARGV + ("--depths", "2..1"),
    SWEEP_ARGV + ("--depths", "2..1", "--algos", "bogus"),
], ids=lambda argv: " ".join(argv[:1] + argv[13:]))
def test_bad_option_value_exit_2(tmp_path, capsys, argv):
    if argv[0] == "sweep":
        argv += ("--out", str(tmp_path / "sweep.csv"))
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert not out
    assert "error" in err
    assert not (tmp_path / "sweep.csv").exists()


@pytest.mark.parametrize("config", ["missing", "case=bogus\nalgo=rs\ndepth=1\nnotation=postfix\n",
                                    "case=case1\nalgo=rs\ndepth=1\nnotation=postfix\n"
                                    "threshold=nan\nmax-evals=5\n"],
                         ids=["missing", "unknown case", "nan threshold"])
def test_search_config_file_errors_exit_2(tmp_path, capsys, config):
    path = tmp_path / "run.cfg"
    if config != "missing":
        path.write_text(config)
    code, out, err = run_cli(capsys, "search", "--config", str(path))
    assert code == 2
    assert not out
    assert "error" in err


def test_evaluate_bad_binding_exit_2(capsys):
    code, out, err = run_cli(capsys, "evaluate", "--case", "case1", "--notation", "postfix",
                             "--expr", "x y_0 +", "--bind", "y_0=abc")
    assert code == 2
    assert not out
    assert "error" in err


@pytest.mark.parametrize("value", ["y_0=abc", "y_0"])
def test_evaluate_malformed_binding_is_usage_error(capsys, value):
    code, out, err = run_cli(capsys, "evaluate", "--case", "case1", "--notation", "postfix",
                             "--expr", "x y_0 +", "--bind", value)
    assert code == 2
    assert not out
    assert "argument --bind" in err


@pytest.mark.parametrize("where", ["missing directory", "directory"])
@pytest.mark.parametrize("argv", [SEARCH_ARGV, SWEEP_ARGV], ids=["search", "sweep"])
def test_unwritable_out_exit_2_before_any_search(tmp_path, capsys, monkeypatch, argv, where):
    from padesr import cli

    calls = []
    real = cli.run_search
    monkeypatch.setattr(cli, "run_search", lambda *a: calls.append(a) or real(*a))
    out_path = tmp_path / "missing" / "r.txt" if where == "missing directory" else tmp_path
    code, out, err = run_cli(capsys, *argv, "--out", str(out_path))
    assert code == 2
    assert not out
    assert "error:" in err
    assert calls == []
    assert not any(tmp_path.iterdir())


def test_env_threads_default(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("PADESR_THREADS", "2")
    out_path = tmp_path / "r.txt"
    code, _, _ = run_cli(
        capsys, "search", "--case", "case1", "--algo", "rs", "--depth", "1",
        "--notation", "prefix", "--time", "30", "--seed", "4",
        "--max-evals", "40", "--out", str(out_path),
    )
    assert code == 0
    assert parse_report(out_path.read_text())["threads"] == "2"


@pytest.mark.parametrize("value", ["abc", "-3", "0"])
@pytest.mark.parametrize("argv", [SEARCH_ARGV, SWEEP_ARGV], ids=["search", "sweep"])
def test_env_threads_invalid_exit_2(tmp_path, capsys, monkeypatch, argv, value):
    monkeypatch.setenv("PADESR_THREADS", value)
    if argv[0] == "sweep":
        argv += ("--out", str(tmp_path / "sweep.csv"))
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert not out
    assert "PADESR_THREADS" in err
    assert not (tmp_path / "sweep.csv").exists()


def test_threads_flag_overrides_invalid_env(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("PADESR_THREADS", "abc")
    out_path = tmp_path / "r.txt"
    code, _, _ = run_cli(capsys, *SEARCH_ARGV, "--threads", "1", "--out", str(out_path))
    assert code == 0
    assert parse_report(out_path.read_text())["threads"] == "1"


# ---------------------------------------------------------------------------
# sweep


def test_sweep_filtered_shape(tmp_path, capsys):
    out_path = tmp_path / "sweep.csv"
    code, _, _ = run_cli(
        capsys, "sweep", "--case", "case1", "--time-per-config", "30",
        "--out", str(out_path), "--algos", "rs", "--depths", "1..2",
        "--notations", "postfix", "--token-sets", "vars",
        "--max-evals", "25", "--seed", "0",
    )
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines[0] == SWEEP_HEADER
    assert len(lines) == 1 + 2  # 1 algo x 2 depths x 1 notation x 1 token set
    first = lines[1].split(",")
    assert first[0] == "1"
    assert first[1] == "Random Search"
    assert first[6] in ("True", "False")
    # ascending MSE
    mses = [float(line.split(",")[4]) for line in lines[1:]]
    assert mses == sorted(mses)


def test_sweep_stable_bytes(tmp_path, capsys):
    args = lambda path: (
        "sweep", "--case", "case1", "--time-per-config", "30",
        "--out", path, "--algos", "rs,sa", "--depths", "1..1",
        "--notations", "prefix,postfix", "--token-sets", "vars,vars+const",
        "--max-evals", "20", "--seed", "7", "--threads", "1",
    )
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli(capsys, *args(str(a)))[0] == 0
    assert run_cli(capsys, *args(str(b)))[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_sweep_unknown_algo_exit_2(tmp_path, capsys):
    code, _, err = run_cli(
        capsys, "sweep", "--case", "case1", "--out", str(tmp_path / "x.csv"),
        "--algos", "bogus",
    )
    assert code == 2


# ---------------------------------------------------------------------------
# output digest: every command's exit code, stdout, stderr and written files

CLI_CONFIG = ("case=case1\nalgo=rs\ndepth=2\nnotation=postfix\ntokens=vars\n"
              "time=30\nseed=9\nmax-evals=30\nthreads=1\n")
CLI_CONFIG_MESH = ("# fitted constants on a coarser mesh\ncase = case2\nalgo=gp\ndepth=2\n"
                   "notation=prefix\ntokens=vars+const+opt\ntime=60\nseed=3\n"
                   "max-evals=40\nthreads=1\nthreshold=0\nmesh=8,8,8\nunused=1\n")
CLI_BAD_CONFIG = "case=case1\nalgo=rs\ndepth=lots\nnotation=postfix\n"
CLI_COMMANDS = (
    ("evaluate", "--case", "case1", "--notation", "prefix", "--expr", "I", "--threshold", "0"),
    ("evaluate", "--case", "case1", "--notation", "prefix", "--expr", "I", "--threshold", "0",
     "--ic-derivatives", "data"),
    ("evaluate", "--case", "case1", "--notation", "postfix", "--expr", "x C * t +"),
    ("evaluate", "--case", "case1", "--notation", "prefix", "--expr", "+ y_0 x",
     "--bind", "y_0=-1.1", "--threshold", "0"),
    ("evaluate", "--case", "case2", "--notation", "postfix", "--expr", "x y + t sech *",
     "--mesh", "6,6,6"),
    ("evaluate", "--case", "case1", "--notation", "prefix", "--expr", "+ x bogus"),
    ("evaluate", "--case", "case1", "--notation", "prefix", "--expr", "+ y_0 x"),
    ("diff", "--expr", "* x sin x", "--notation", "prefix", "--wrt", "x", "--order", "2"),
    ("diff", "--expr", "+ I_xx I_yy", "--notation", "prefix", "--wrt", "x"),
    ("diff", "--expr", "x x_max * I /", "--notation", "postfix", "--wrt", "x", "--case", "case2"),
    ("diff", "--expr", "I", "--notation", "postfix", "--wrt", "y", "--order", "2"),
    ("search", "--config", "{tmp}/run.cfg", "--depth", "1", "--out", "{tmp}/r1.txt"),
    ("search", "--config", "{tmp}/mesh.cfg", "--seed", "5"),
    ("search", "--config", "{tmp}/mesh.cfg", "--mesh", "6,6,6", "--algo", "sa",
     "--tokens", "vars+const", "--out", "{tmp}/r2.txt"),
    ("search", "--case", "case1", "--algo", "sa", "--depth", "2", "--notation", "postfix",
     "--time", "30", "--seed", "2", "--max-evals", "50", "--threshold", "0",
     "--threads", "1", "--seed-expr", "I t sech *"),
    ("search", "--case", "case1", "--algo", "rs", "--depth", "2", "--notation", "postfix",
     "--time", "2", "--max-evals", "0"),
    ("search", "--case", "case1"),
    ("search", "--config", "{tmp}/bad.cfg"),
    ("search", "--config", "{tmp}/missing.cfg"),
    ("search", "--case", "case1", "--algo", "sa", "--depth", "2", "--notation", "postfix",
     "--tokens", "vars", "--seed-expr", "x C *", "--max-evals", "5"),
    ("sweep", "--case", "case1", "--time-per-config", "30", "--out", "{tmp}/sweep.csv",
     "--algos", "rs,sa", "--depths", "2..3", "--notations", "prefix,postfix",
     "--token-sets", "vars,vars+const", "--max-evals", "60", "--seed", "3", "--threads", "1"),
)
# re-recorded when a search whose best total is inf began to report
# ``status=no-finite-candidate``; only the run.cfg search's output moved
CLI_DIGEST = "1af128cf38c44e4f13f53c222363352e3da6eb0ea028c0fa31403e27d1f5aa5e"


def test_cli_output_digest(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("PADESR_THREADS", raising=False)
    (tmp_path / "run.cfg").write_text(CLI_CONFIG)
    (tmp_path / "mesh.cfg").write_text(CLI_CONFIG_MESH)
    (tmp_path / "bad.cfg").write_text(CLI_BAD_CONFIG)
    digest = hashlib.sha256()
    for argv in CLI_COMMANDS:
        code, out, err = run_cli(capsys, *(a.format(tmp=tmp_path) for a in argv))
        written = [p.read_text() for p in sorted(tmp_path.glob("*.*"))]
        text = "\n\0".join([str(code), out, err, *written]).replace(str(tmp_path), "{tmp}")
        text = re.sub(r"(elapsed=|improvement_\d+=)[0-9.]+", r"\1*", text)
        digest.update(text.encode())
    assert digest.hexdigest() == CLI_DIGEST
