import csv
import json
import math
import os
import shlex
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from repfreq import apps, bounds, cli, concentration, linprog, simulate
from repfreq.cli import dispatch
from repfreq.game import StageGame, emit_game
from repfreq.linprog import LPResult
from . import _reference_stage
from .conftest import cycling_game, fixture_path, random_assumption_games
from .test_simulate import equality_target

SCHEMAS = Path(__file__).resolve().parent.parent / "schemas"
DIST_FILE = Path(__file__).resolve().parent.parent / "fixtures" / "tail_dist_quarter.json"


def run_cli(capsys, *argv) -> tuple[int, str]:
    code = dispatch(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_python(*args, timeout: float) -> subprocess.CompletedProcess:
    """Run a fresh interpreter that imports this ``repfreq``;
    ``subprocess.TimeoutExpired`` fails the test where a hang would otherwise
    stall it."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(Path(cli.__file__).resolve().parents[1]), env.get("PYTHONPATH", "")])
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env, timeout=timeout)


def run_cli_process(*argv, timeout: float) -> subprocess.CompletedProcess:
    """Run the CLI in a fresh interpreter."""
    return run_python("-m", "repfreq.cli", *argv, timeout=timeout)


def validate(doc: dict, schema_name: str) -> None:
    schema = json.loads((SCHEMAS / schema_name).read_text())
    jsonschema.validate(doc, schema)


def test_analyze_output(capsys):
    code, out = run_cli(capsys, "analyze", str(fixture_path("matching_pennies_tilted")))
    assert code == 0
    doc = json.loads(out)
    validate(doc, "analyze.schema.json")
    assert doc["assumptions"]["a2_above_minmax"] is False
    assert doc["minmax"] == pytest.approx(0.05, abs=1e-9)


def test_fstar_output(capsys):
    code, out = run_cli(capsys, "fstar", str(fixture_path("product_choice")))
    assert code == 0
    doc = json.loads(out)
    validate(doc, "fstar.schema.json")
    assert doc["value"] == pytest.approx(0.375, abs=1e-9)


def test_fstar_grid_method(capsys):
    code, out = run_cli(
        capsys, "fstar", str(fixture_path("product_choice")), "--method", "grid", "--resolution", "20"
    )
    assert code == 0
    doc = json.loads(out)
    validate(doc, "fstar.schema.json")
    assert doc["value"] == pytest.approx(0.375, abs=1e-9)


def test_fstar_prop1_method(capsys):
    code, out = run_cli(capsys, "fstar", str(fixture_path("entry_deterrence")), "--method", "prop1")
    assert code == 0
    doc = json.loads(out)
    validate(doc, "fstar.schema.json")
    assert doc["value"] == pytest.approx(0.3 / 0.7, abs=1e-8)


def test_fstar_unattainable_pinned_payoff_exits_1_with_one_stderr_line(capsys):
    # --equality pins the payoff at v* - epsilon = 0.6 - 2, below every payoff of the game.
    code = dispatch(["fstar", str(fixture_path("product_choice")), "--equality", "--epsilon", "2"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: no reply-consistent profile pays the pinned payoff v* - epsilon = -1.4"]


def test_in_set_a_member(capsys):
    code, out = run_cli(
        capsys, "in-set-a", str(fixture_path("product_choice")), "--alpha", "H:0.375,L:0.625"
    )
    assert code == 0
    doc = json.loads(out)
    validate(doc, "in_set_a.schema.json")
    assert doc["member"] is True
    assert doc["weights"]["h"]["mass"] == pytest.approx(0.75, abs=1e-6)


def test_in_set_a_nonmember(capsys):
    code, out = run_cli(capsys, "in-set-a", str(fixture_path("product_choice")), "--alpha", "L:1.0")
    assert code == 0
    doc = json.loads(out)
    validate(doc, "in_set_a.schema.json")
    assert doc == {"member": False}


def test_simulate_output_and_csv(capsys, tmp_path):
    out_csv = tmp_path / "freq.csv"
    code, out = run_cli(
        capsys,
        "simulate",
        str(fixture_path("product_choice")),
        "--target", "H:0.375,L:0.625",
        "--delta", "0.999",
        "--eps1", "0.01",
        "--reps", "120",
        "--out", str(out_csv),
    )
    assert code == 0
    doc = json.loads(out)
    validate(doc, "simulate.schema.json")
    assert abs(doc["freq"]["H"] - 0.375) < 0.05
    lines = out_csv.read_text().strip().splitlines()
    assert lines[0] == "action,freq_estimate,ci_radius"
    assert len(lines) == 3


def test_simulate_out_file_ends_lines_as_format_csv_does(capsys, tmp_path):
    out_csv = tmp_path / "freq.csv"
    argv = ["simulate", str(fixture_path("product_choice")), "--target", "H:1", "--delta", "0.999", "--reps", "100"]
    code, _ = run_cli(capsys, *argv, "--out", str(out_csv))
    assert code == 0
    written = out_csv.read_bytes()
    assert b"\r" not in written
    assert [line.split(",")[0] for line in written.decode().split("\n")] == ["action", "H", "L", ""]
    code, out = run_cli(capsys, *argv, "--format", "csv")
    assert code == 0 and "\r" not in out


def test_simulate_reports_phase_shares(capsys):
    code, out = run_cli(
        capsys,
        "simulate",
        str(fixture_path("product_choice")),
        "--target", "H:0.375,L:0.625",
        "--delta", "0.999",
        "--eps1", "0.01",
        "--reps", "100",
    )
    assert code == 0
    doc = json.loads(out)
    validate(doc, "simulate.schema.json")
    shares = [doc["phase_stats"][f"share_{phase}"] for phase in ("prep", "review", "absorb", "comp")]
    assert sum(shares) == pytest.approx(1.0, abs=1e-9)
    assert doc["phase_stats"]["share_absorb"] == 0


@pytest.mark.parametrize("delta, unending", [(0.995, 1.0), (0.999, 0.0)])
def test_simulate_surfaces_the_regime(capsys, delta, unending):
    # The criterion-7 configuration runs below delta_bar_theory at both
    # discounts. At 0.995 a review surplus needs y > 1 burn capacity, so every
    # path ends in a compensation run that cannot end; at 0.999 none does.
    code, out = run_cli(
        capsys,
        "simulate",
        str(fixture_path("product_choice")),
        "--target", "H:0.375,L:0.625",
        "--delta", str(delta),
        "--eps1", "0.01",
        "--reps", "100",
    )
    assert code == 0
    doc = json.loads(out)
    validate(doc, "simulate.schema.json")
    assert doc["params"]["in_theory_regime"] is False
    assert doc["phase_stats"]["comp_unending"] == unending


def test_simulate_at_the_construction_bound_exits_1_with_one_stderr_line(capsys):
    code = dispatch(
        [
            "simulate", str(fixture_path("product_choice")), "--target", "H:0.375,L:0.625",
            "--eps1", "0.01", "--delta", "0.99",
        ]
    )
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: delta 0.99 is at or below the construction bound 0.99 (1 - eps1)"]


def test_simulate_near_delta_one_exits_1_with_one_stderr_line():
    # t2_bar = ceil(log(0.5) / log(delta)) is about 6.9e12 periods: the path's
    # discount vector is refused before anything is drawn, in place of an
    # allocation of tebibytes. An always-commit path allocates nothing per
    # period, so it still runs at this delta.
    fixture, delta = str(fixture_path("product_choice")), "0.9999999999999"
    argv = ["simulate", fixture, "--target", "H:0.375,L:0.625", "--delta", delta, "--reps", "100", "--eps1", "0.5"]
    proc = run_cli_process(*argv, timeout=60)
    assert proc.returncode == 1
    assert proc.stdout == ""
    [line] = proc.stderr.splitlines()
    assert line.startswith("error: the path's discount vector would take ")
    assert line.endswith(f" entries, above the cap of {concentration.MAX_HORIZON}")
    proc = run_cli_process("simulate", fixture, "--target", "H:1", "--delta", delta, "--reps", "100", timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["freq"]["H"] > 0.99


def test_simulate_runs_clean_where_compensation_cannot_start(capsys, tmp_path):
    # t1 = 193,772 exceeds the 3,674-period horizon at delta = 0.995, so
    # delta**(t1 + t2_bar) underflows to 0: no compensation run can end.
    game = random_assumption_games(137, 11, 3)[136]
    path = tmp_path / "game.json"
    path.write_text(emit_game(game))
    target = equality_target(game)
    spec = ",".join(f"{a}:{target.prob(a)!r}" for a in sorted(target.support()))
    code = dispatch(["simulate", str(path), "--target", spec, "--eps1", "0.01", "--delta", "0.995", "--reps", "100"])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.err == ""
    doc = json.loads(captured.out)
    assert doc["params"]["t1"] == 193_772
    assert doc["incentives"]["min_continuation"] == game.payoff1(doc["params"]["a_prime"], doc["params"]["b_prime"])


def test_simulate_draws_no_review_past_the_horizon(tmp_path):
    # t1 = 1,688,517 against an 18,411-period horizon, so every path is cut
    # inside its first review. Drawing whole reviews took over a second a path;
    # drawing only the words before the horizon takes milliseconds.
    game = random_assumption_games(40, 1305, 5)[1]
    path = tmp_path / "game.json"
    path.write_text(emit_game(game))
    target = equality_target(game)
    spec = ",".join(f"{a}:{target.prob(a)!r}" for a in sorted(target.support()))
    argv = ["simulate", str(path), "--target", spec, "--eps1", "0.01", "--delta", "0.999", "--reps", "100"]
    proc = run_cli_process(*argv, timeout=60)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["params"]["t1"] == 1_688_517
    assert doc["phase_stats"]["blocks"] == 0


def test_readme_cli_examples_run(capsys, tmp_path, monkeypatch):
    # Every command in README's CLI block exits 0 and prints one JSON document.
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line, comments=True) for line in block.replace("\\\n", "").splitlines()]
    assert len(commands) >= 10 and all(argv[0] == "repfreq" for argv in commands)
    (tmp_path / "fixtures").symlink_to(Path(__file__).resolve().parent.parent / "fixtures")
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        code, out = run_cli(capsys, *argv[1:])
        assert code == 0, argv
        assert isinstance(json.loads(out), dict), argv
    assert (tmp_path / "freq.csv").exists()


# Prints, on stderr, the top-level packages outside the standard library that
# importing repfreq and running one command load. Modules the interpreter's
# own start-up loaded (site hooks of the installation) are not counted.
THIRD_PARTY_LOADED = """
import json, sys
before = set(sys.modules)
import repfreq, repfreq.cli
code = repfreq.cli.dispatch(["fstar", sys.argv[1]])
loaded = {name.partition(".")[0] for name in set(sys.modules) - before}
print(json.dumps(sorted(loaded - set(sys.stdlib_module_names))), file=sys.stderr)
sys.exit(code)
"""


def test_runtime_dependency_is_numpy_only():
    # scipy, jsonschema and hypothesis are installed for the tests; the
    # package itself must run on numpy alone.
    proc = run_python("-c", THIRD_PARTY_LOADED, str(fixture_path("product_choice")), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert set(json.loads(proc.stderr.splitlines()[-1])) == {"numpy", "repfreq"}


def test_concentration_output(capsys):
    code, out = run_cli(
        capsys,
        "concentration",
        "--dist", str(DIST_FILE),
        "--delta", "0.9",
        "--c", "1.0",
        "--reps", "2000",
        "--seed", "4",
    )
    assert code == 0
    doc = json.loads(out)
    validate(doc, "concentration.schema.json")
    assert doc["empirical"] <= doc["analytic_bound"] + 3 * doc["std_error"]


def test_concentration_returns_a_root_above_512(tmp_path):
    # Above 512 adjacent floats lie more than the bisection's bracket width
    # apart; the root here is about 690.8.
    dist = tmp_path / "dist.json"
    dist.write_text(json.dumps([{"value": 0.01, "prob": 0.001}, {"value": -1, "prob": 0.999}]))
    argv = ["concentration", "--dist", str(dist), "--delta", "0.9", "--c", "0.001", "--reps", "1000"]
    proc = run_cli_process(*argv, timeout=60)
    assert proc.returncode == 0, proc.stderr
    r = json.loads(proc.stdout)["r_star"]
    assert 0.001 * math.exp(0.01 * r) + 0.999 * math.exp(-r) == pytest.approx(1.0, abs=1e-12)


def test_concentration_solves_a_support_of_order_1e_minus_300(tmp_path):
    # The root, about 1.386e300, lies far above any fixed doubling limit.
    dist = tmp_path / "dist.json"
    dist.write_text(json.dumps([{"value": 1e-300, "prob": 0.25}, {"value": -1e-299, "prob": 0.75}]))
    argv = ["concentration", "--dist", str(dist), "--delta", "0.9", "--c", "1", "--reps", "1000"]
    proc = run_cli_process(*argv, timeout=60)
    assert proc.returncode == 0, proc.stderr
    r = json.loads(proc.stdout)["r_star"]
    assert 0.25 * math.exp(r * 1e-300) + 0.75 * math.exp(-r * 1e-299) == pytest.approx(1.0, abs=1e-12)


def test_app_output(capsys):
    code, out = run_cli(
        capsys, "app", "product-choice", "--gamma", "0.5", "--ch", "0.4", "--cl", "0.2"
    )
    assert code == 0
    doc = json.loads(out)
    validate(doc, "app.schema.json")
    assert abs(doc["difference"]) <= 1e-8


def test_app_fiscal_reports_complement(capsys):
    code, out = run_cli(capsys, "app", "fiscal", "--tau", "0.3", "--c", "0.2")
    assert code == 0
    doc = json.loads(out)
    validate(doc, "app.schema.json")
    assert doc["expropriation_freq"] == pytest.approx(25.0 / 28.0, abs=1e-9)


def test_unknown_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        dispatch(["bogus"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "GAME", "--tol", "-1"],
        ["analyze", "GAME", "--tol", "nan"],
        ["fstar", "GAME", "--epsilon", "nan"],
        ["fstar", "GAME", "--epsilon", "inf"],
        ["in-set-a", "GAME", "--alpha", "H:1", "--epsilon", "nan"],
        ["concentration", "--dist", str(DIST_FILE), "--delta", "0.9", "--reps", "1000", "--c", "nan"],
    ],
)
def test_non_finite_or_negative_numbers_are_usage_errors(capsys, argv):
    argv = [str(fixture_path("product_choice")) if arg == "GAME" else arg for arg in argv]
    with pytest.raises(SystemExit) as exc:
        dispatch(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "GAME", "--target", "H:1", "--delta", "0.999", "--reps", str(simulate.MIN_REPS - 1)],
        [
            "concentration", "--dist", str(DIST_FILE), "--delta", "0.9", "--c", "1",
            "--reps", str(concentration.MIN_REPS - 1),
        ],
    ],
)
def test_reps_below_the_library_minimum_are_usage_errors(capsys, argv):
    argv = [str(fixture_path("product_choice")) if arg == "GAME" else arg for arg in argv]
    with pytest.raises(SystemExit) as exc:
        dispatch(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


APP_PRODUCT_CHOICE = ["product-choice", "--gamma", "0.5", "--ch", "0.4", "--cl", "0.2"]


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "GAME", "--seed", "1"],
        ["fstar", "GAME", "--seed", "1"],
        ["in-set-a", "GAME", "--alpha", "H:1", "--seed", "1"],
        ["concentration", "--dist", str(DIST_FILE), "--delta", "0.9", "--c", "1", "--reps", "1000", "--tol", "1e-6"],
        ["app", "--format", "csv", *APP_PRODUCT_CHOICE],
        ["simulate", "GAME", "--target", "H:1", "--delta", "0.999", "--pi", "0.5"],
        ["concentration", "--dist", str(DIST_FILE), "--delta", "0.9", "--c", "1", "--reps", "1000", "--horizon", "200"],
        ["fstar", "GAME", "--method", "prop1", "--equality"],
        ["fstar", "GAME", "--method", "grid", "--epsilon", "0.1"],
        ["fstar", "GAME", "--resolution", "20"],
    ],
)
def test_options_a_command_does_not_read_are_usage_errors(capsys, argv):
    argv = [str(fixture_path("product_choice")) if arg == "GAME" else arg for arg in argv]
    with pytest.raises(SystemExit) as exc:
        dispatch(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def test_app_variant_takes_format(capsys):
    code, out = run_cli(capsys, "app", *APP_PRODUCT_CHOICE, "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "key,value"
    assert any(line.startswith("lp_value,") for line in lines)


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            [
                "simulate", str(fixture_path("product_choice")), "--target", "H:0.375,L:0.625",
                "--delta", "0.999", "--reps", "100", "--tol", "0.5",
            ],
            "requires a unique commitment action and reply",
        ),
        (["app", *APP_PRODUCT_CHOICE, "--tol", "0.5"], "multiple optimal commitment actions"),
    ],
)
def test_simulate_and_app_read_tol(capsys, argv, message):
    # At a tolerance of 0.5 the product-choice commitment point is no longer unique.
    code = dispatch(argv)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert message in captured.err


@pytest.mark.parametrize("cost_in", ["nan", "inf"])
def test_entry_non_finite_cost_in_exits_1_with_one_stderr_line(capsys, cost_in):
    code = dispatch(["app", "entry", "--gamma", "0.6", "--co", "0.5", "--ci", cost_in])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: cost_in must be finite and positive, got {cost_in}"]


@pytest.mark.parametrize("cost_in", ["1e300", "1e308"])
def test_entry_at_a_huge_cost_in_matches_the_closed_form_quietly(cost_in):
    # Solved through phase 1, this LP answered 0.5 at 1e300 and overflowed in
    # its pivots at 1e308, printing numpy warnings on a success.
    proc = run_cli_process("app", "entry", "--gamma", "0.5", "--co", "0.5", "--ci", cost_in, timeout=60)
    assert proc.returncode == 0
    assert proc.stderr == ""
    doc = json.loads(proc.stdout)
    assert doc["closed_form"] == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert doc["difference"] == 0.0


def test_a_failed_frequency_lp_exits_1_with_one_stderr_line(capsys, monkeypatch):
    monkeypatch.setattr(bounds, "solve_lp", lambda *args, **kwargs: LPResult("unbounded"))
    code = dispatch(["fstar", str(fixture_path("product_choice"))])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: frequency LP returned 'unbounded'; its objective is bounded below by 0"]


def test_prop1_outside_its_hypothesis_exits_1(capsys, tmp_path):
    game = tmp_path / "best_reply.json"
    game.write_text(
        json.dumps(
            {
                "actions1": ["a0", "a1"],
                "actions2": ["b0", "b1"],
                "u1": [[0.4, -0.8], [0.6, 0.45]],
                "u2": [[0.25, -0.95], [-0.6, 0.2]],
                "order1": ["a0", "a1"],
                "order2": ["b0", "b1"],
            }
        )
    )
    code = dispatch(["fstar", str(game), "--method", "prop1"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "not a best reply" in captured.err


def test_missing_file_exits_1(capsys):
    code, _ = run_cli(capsys, "fstar", "/no/such/game.json")
    assert code == 1


@pytest.mark.parametrize("command", ["analyze", "concentration", "simulate"])
def test_os_errors_exit_1_with_one_stderr_line(capsys, tmp_path, command):
    not_a_dir = tmp_path / "file"
    not_a_dir.write_text("")
    bad = str(not_a_dir / "x")
    argv = {
        "analyze": ["analyze", bad],
        "concentration": ["concentration", "--dist", bad, "--delta", "0.9", "--c", "1", "--reps", "1000"],
        "simulate": [
            "simulate", str(fixture_path("product_choice")), "--target", "H:0.375,L:0.625",
            "--delta", "0.999", "--reps", "100", "--out", bad,
        ],
    }[command]
    code = dispatch(argv)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert "Not a directory" in captured.err


def test_permission_error_exits_1(capsys, monkeypatch):
    def deny(path):
        raise PermissionError(13, "Permission denied", path)

    monkeypatch.setattr(cli, "load_game_file", deny)
    code = dispatch(["fstar", "game.json"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: [Errno 13] Permission denied: 'game.json'"]


def test_invalid_game_exits_1(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"actions1": ["a"], "actions2": ["x", "y"], "u1": [[0, 0]], "u2": [[0, 0]]}')
    code, _ = run_cli(capsys, "analyze", str(bad))
    assert code == 1


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
def test_non_finite_payoff_in_a_game_file_exits_1_with_one_stderr_line(capsys, tmp_path, literal):
    # Python's JSON reader takes these literals as floats.
    bad = tmp_path / "bad.json"
    bad.write_text(fixture_path("product_choice").read_text().replace("-0.2", literal, 1))
    assert literal in bad.read_text()
    code = dispatch(["analyze", str(bad)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: u1 contains a non-finite payoff"]


def test_fstar_grid_at_resolution_50_on_a_3x2_game(capsys):
    game = str(fixture_path("nash_overlap_3x2"))
    code, out = run_cli(capsys, "fstar", game)
    assert code == 0
    lp = json.loads(out)["value"]
    code, out = run_cli(capsys, "fstar", game, "--method", "grid", "--resolution", "50")
    assert code == 0
    assert lp <= json.loads(out)["value"] <= lp + 0.03


def test_fstar_grid_past_its_point_budget_exits_1_with_one_stderr_line(capsys, tmp_path):
    # 176,851 grid points of 4 actions at resolution 100, times 4 replies.
    game = tmp_path / "four.json"
    labels = ["a", "b", "c", "d"]
    u1, u2 = np.diag([1.0, 2.0, 3.0, 4.0]).tolist(), np.eye(4).tolist()  # a unique commitment point
    game.write_text(json.dumps({"actions1": labels, "actions2": labels, "u1": u1, "u2": u2}))
    code = dispatch(["fstar", str(game), "--method", "grid", "--resolution", "100"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: grid too large for the enumeration budget"]


@pytest.mark.parametrize(
    "change, message",
    [
        ({"order1": [1, "H"]}, "order1 must be an array of action labels"),
        ({"order1": "HL"}, "order1 must be an array of action labels"),
        ({"u1": [[True, -0.2], [1.0, 0.0]]}, "u1 must be an array of numeric rows"),
        ({"u1": [[10**400, -0.2], [1.0, 0.0]]}, "int too large to convert to float"),
        ({"u1": [[1, 2], [3]]}, "u1 has rows of different lengths"),
        ({"name": 5}, "name must be a string"),
    ],
)
def test_mistyped_game_file_exits_1_with_one_stderr_line(capsys, tmp_path, change, message):
    doc = json.loads(fixture_path("product_choice").read_text())
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({**doc, **change}))
    code = dispatch(["analyze", str(bad)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: {message}"]


@pytest.mark.parametrize(
    "entries, shown",
    [
        ([0.5, 0.5], "0.5"),
        ([{"value": 1.0}], '{"value": 1.0}'),
        ([{"value": 1.0, "prob": "1"}], '{"value": 1.0, "prob": "1"}'),
        ([{"value": True, "prob": 1.0}], '{"value": true, "prob": 1.0}'),
    ],
)
def test_malformed_distribution_entries_exit_1_with_one_stderr_line(capsys, tmp_path, entries, shown):
    dist = tmp_path / "dist.json"
    dist.write_text(json.dumps(entries))
    code = dispatch(["concentration", "--dist", str(dist), "--delta", "0.9", "--c", "1", "--reps", "1000"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: distribution entry {shown} is not a {{value, prob}} object of numbers"]


def test_nan_probability_exits_1_with_one_stderr_line(capsys, tmp_path):
    dist = tmp_path / "dist.json"
    dist.write_text('[{"value": 1.0, "prob": NaN}, {"value": -1.0, "prob": 0.5}]')
    code = dispatch(["concentration", "--dist", str(dist), "--delta", "0.9", "--c", "1", "--reps", "1000"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: probabilities must be finite and positive"]


HUGE = [{"value": 1e308, "prob": 0.25}, {"value": -1e308, "prob": 0.75}]
OVERFLOW = "error: the largest |value| 1e+308 / (1 - delta) is not a finite float, so the discounted sums can overflow"


@pytest.mark.parametrize(
    "entries, delta, message",
    [
        # The shortest horizon, about 4.6e17 steps, would need exabytes of discounts.
        (None, "0.9999999999999999", "error: horizon 455334739114326143 is above the cap of 10000000 steps"),
        # limit * (1 - delta) / max(Z) underflows to 0, so the horizon is solved in logarithms.
        (HUGE, "0.9999999999999999", OVERFLOW),
        # The chunk reach and the prefix sums would overflow, and numpy would warn on a success.
        (HUGE, "0.9", OVERFLOW),
    ],
    ids=["past-the-horizon-cap", "horizon-ratio-underflows", "sums-overflow"],
)
def test_concentration_refusals_exit_1_with_one_stderr_line(capsys, tmp_path, entries, delta, message):
    dist = DIST_FILE
    if entries is not None:
        dist = tmp_path / "dist.json"
        dist.write_text(json.dumps(entries))
    code = dispatch(["concentration", "--dist", str(dist), "--delta", delta, "--c", "1", "--reps", "1000"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.splitlines() == [message]


def test_runtime_error_exits_1_with_one_stderr_line(capsys, monkeypatch):
    def fail(args):
        raise RuntimeError("block entered compensation with a payoff deficit (-0.1)")

    monkeypatch.setitem(cli._COMMANDS, "fstar", fail)
    code = dispatch(["fstar", str(fixture_path("product_choice"))])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: block entered compensation with a payoff deficit (-0.1)"]


def test_a_key_error_is_a_bug_not_a_refusal(capsys, monkeypatch):
    # No module raises KeyError on purpose, so dispatch lets one through
    # rather than print it as "error: 'x'" with exit 1.
    def fail(args):
        raise KeyError("x")

    monkeypatch.setitem(cli._COMMANDS, "fstar", fail)
    with pytest.raises(KeyError, match="x"):
        dispatch(["fstar", str(fixture_path("product_choice"))])
    assert capsys.readouterr().err == ""


def test_simplex_past_its_pivot_cap_exits_1_with_one_stderr_line(capsys, monkeypatch):
    monkeypatch.setattr(linprog, "_MAX_PIVOTS", 0)
    code = dispatch(["fstar", str(fixture_path("product_choice"))])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: simplex made 0 pivots without finishing; the ratio test is cycling"]


def test_analyze_bounds_ignore_a_large_u2_scale(capsys, tmp_path):
    # At this scale the simplex once cycled on the LP that asks whether b1 and
    # b2 can both be best replies (see test_linprog); the bounds must not need it.
    docs = {}
    for name, game in (("plain", cycling_game(1.0, 0.0)), ("scaled", cycling_game())):
        path = tmp_path / f"{name}.json"
        path.write_text(emit_game(game))
        code, out = run_cli(capsys, "analyze", str(path))
        assert code == 0
        docs[name] = json.loads(out)
    for key in ("minmax", "vbar"):
        assert docs["scaled"][key] == pytest.approx(docs["plain"][key], abs=1e-9)


def test_deterministic_stdout(capsys):
    args = [
        "simulate",
        str(fixture_path("product_choice")),
        "--target", "H:0.375,L:0.625",
        "--delta", "0.999",
        "--reps", "100",
        "--seed", "9",
    ]
    _, first = run_cli(capsys, *args)
    _, second = run_cli(capsys, *args)
    assert first == second


def test_human_format(capsys):
    code, out = run_cli(capsys, "fstar", str(fixture_path("product_choice")), "--format", "human")
    assert code == 0
    assert "value = 0.37" in out


def test_csv_format(capsys):
    code, out = run_cli(capsys, "analyze", str(fixture_path("product_choice")), "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "key,value"
    assert any(line.startswith("minmax,") for line in lines)


def test_csv_quotes_labels_with_commas_and_quotes(capsys, tmp_path):
    path = tmp_path / "quoted.json"
    doc = {
        "actions1": ["High, premium", "L"],
        "actions2": ['buy "h"', "l"],
        "u1": [[0.6, -0.2], [1.0, 0.0]],
        "u2": [[1.5, 1.0], [-0.5, 0.0]],
    }
    path.write_text(json.dumps(doc))
    code, out = run_cli(capsys, "fstar", str(path), "--format", "csv")
    assert code == 0
    rows = list(csv.reader(out.splitlines()))
    assert rows[0] == ["key", "value"]
    assert all(len(row) == 2 for row in rows)
    keys = {key for key, _ in rows}
    assert "witness.alpha1.High, premium" in keys
    assert ["witness.b1", 'buy "h"'] in rows


@pytest.mark.parametrize(
    "argv",
    [
        ["in-set-a", "GAME", "--alpha", "H:0.375,L:0.625,Typo:0"],
        ["simulate", "GAME", "--target", "H:1,Typo:0", "--delta", "0.999", "--reps", "100"],
    ],
)
def test_unknown_label_at_zero_weight_exits_1_with_one_stderr_line(capsys, argv):
    argv = [str(fixture_path("product_choice")) if arg == "GAME" else arg for arg in argv]
    code = dispatch(argv)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: unknown action 'Typo', expected one of ['H', 'L']"]


def test_shared_parser_keeps_no_state_between_calls(capsys):
    assert cli.build_parser() is cli.build_parser()
    game = str(fixture_path("product_choice"))
    fresh: dict[tuple[str, ...], str] = {}

    def check(*argv) -> str:
        code, out = run_cli(capsys, *argv)
        assert code == 0
        if argv not in fresh:
            proc = run_cli_process(*argv, timeout=120)
            assert proc.returncode == 0, proc.stderr
            fresh[argv] = proc.stdout
        assert out == fresh[argv]
        return out

    check("fstar", game, "--tol", "1e-6", "--format", "human", "--method", "prop1")
    check("fstar", game, "--equality")
    doc = json.loads(check("fstar", game))
    assert doc["equality"] is False
    assert doc["method"] == "lp"
    with pytest.raises(SystemExit) as exc:
        dispatch(["fstar", game, "--method", "simplex"])
    assert exc.value.code == 2
    capsys.readouterr()
    assert check("fstar", game) == json.dumps(doc, indent=2, sort_keys=True) + "\n"
    json.loads(check("analyze", game))


def test_a_two_by_63_game_reaches_analyze_with_the_reference_bounds(capsys, tmp_path):
    # A table row has 2 + 63 = 65 columns, so the packed rows take two words.
    # Columns 0 to 59 pay player 2 at most -3 and are never best replies, so
    # no support the reference enumerates holds one: its bounds are those of
    # the 2 x 3 game of columns 60 to 62. Columns 61 and 62 tie for player 2
    # everywhere and straddle the word boundary.
    rng = np.random.default_rng(34)
    u1 = rng.uniform(-1.0, 1.0, (2, 63))
    u2 = np.hstack([rng.uniform(-5.0, -3.0, (2, 60)), [[1.0, 0.0, 0.0], [0.0, 0.5, 0.5]]])
    game = StageGame(("a0", "a1"), tuple(f"b{j}" for j in range(63)), u1, u2)
    path = tmp_path / "wide.json"
    path.write_text(emit_game(game))
    code, out = run_cli(capsys, "analyze", str(path))
    assert code == 0
    doc = json.loads(out)
    live = StageGame(game.actions1, game.actions2[60:], u1[:, 60:], u2[:, 60:])
    assert doc["minmax"] == pytest.approx(_reference_stage.minmax_p1(live), abs=1e-12)
    assert doc["vbar"] == pytest.approx(_reference_stage.vbar_p1(live), abs=1e-12)


def test_concentration_refuses_a_root_past_the_float_range(capsys, tmp_path):
    # The largest value is subnormal: its reciprocal, and the tail exponent's
    # root (about 1e323), overflow.
    dist = tmp_path / "dist.json"
    dist.write_text(json.dumps([{"value": 5e-324, "prob": 0.25}, {"value": -1e-300, "prob": 0.75}]))
    code = dispatch(["concentration", "--dist", str(dist), "--delta", "0.9", "--c", "1", "--reps", "1000"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: the largest value 4.94e-324 is too small: its reciprocal is not a finite float"
    ]


def test_fstar_grid_past_its_sort_budget_exits_1_at_once():
    # 100,000 points times 2 replies is a small grid, but the scan sorts it
    # once for each of 100,000 mixing weights: minutes of work, refused at once.
    argv = ["fstar", str(fixture_path("product_choice")), "--method", "grid", "--resolution", "99999"]
    proc = run_cli_process(*argv, timeout=60)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.splitlines() == ["error: grid too large for the enumeration budget"]


@pytest.mark.parametrize(
    "argv, expected",
    [
        (
            ["product-choice", "--gamma", "0.5", "--ch", "0.4", "--cl", "0.2"],
            apps.ProductChoiceParams(gamma=0.5, cost_high=0.4, cost_low=0.2),
        ),
        (
            ["product3", "--g1", "0.7", "--g2", "0.3", "--p", "0.5", "--c", "0.4"],
            apps.ThreeProductParams(gamma_hi=0.7, gamma_lo=0.3, mid_value=0.5, cost=0.4),
        ),
        (
            ["entry", "--gamma", "0.6", "--co", "0.5", "--ci", "0.3", "--subsidy", "0.2"],
            apps.EntryDeterrenceParams(gamma=0.6, cost_out=0.5, cost_in=0.3, subsidy=0.2),
        ),
        (
            ["entry", "--gamma", "0.6", "--co", "0.5", "--ci", "0.3"],
            apps.EntryDeterrenceParams(gamma=0.6, cost_out=0.5, cost_in=0.3),
        ),
        (["fiscal", "--tau", "0.3", "--c", "0.2"], apps.FiscalPolicyParams(tax=0.3, cost=0.2)),
    ],
)
def test_each_app_flag_sets_its_own_field(capsys, monkeypatch, argv, expected):
    # The parameters, not the document: the fiscal closed form is symmetric in
    # tax and cost, so swapped fields would print the same numbers.
    built = []
    closed_form = apps.closed_form_min_freq
    monkeypatch.setattr(apps, "closed_form_min_freq", lambda params: built.append(params) or closed_form(params))
    assert dispatch(["app", *argv]) == 0
    capsys.readouterr()
    assert built[0] == expected  # fiscal's expropriation_freq calls it again


def test_cli_fuzz_either_refuses_or_prints_a_valid_document(tmp_path):
    # Seeded integer and uniform games of 2 to 4 actions a side. Each call
    # either raises ValueError, a refusal, or returns a document that renders
    # as strict JSON and matches its schema; any other exception is a bug.
    rng = np.random.default_rng(2026)
    validators = {}
    for name in ("analyze", "fstar", "in_set_a"):
        schema = json.loads((SCHEMAS / f"{name}.schema.json").read_text())
        validators[name] = jsonschema.validators.validator_for(schema)(schema)
    documents = dict.fromkeys(("analyze", "fstar", "in-set-a"), 0)
    for i in range(400):
        n_a, n_b = (int(n) for n in rng.integers(2, 5, 2))
        if i < 200:
            u1, u2 = (rng.integers(-2, 3, (n_a, n_b)).astype(float) for _ in range(2))
        else:
            u1, u2 = (rng.uniform(-1.0, 1.0, (n_a, n_b)) for _ in range(2))
        labels1 = tuple(f"a{k}" for k in range(n_a))
        path = tmp_path / f"game_{i}.json"
        path.write_text(emit_game(StageGame(labels1, tuple(f"b{k}" for k in range(n_b)), u1, u2)))
        target = ",".join(f"{label}:{prob!r}" for label, prob in zip(labels1, rng.dirichlet(np.ones(n_a)).tolist()))
        for argv in (
            ["analyze"],
            ["fstar"],
            ["fstar", "--epsilon", "0.05"],
            ["fstar", "--equality", "--epsilon", "0.01"],
            ["in-set-a", "--alpha", target],
        ):
            args = cli.build_parser().parse_args([argv[0], str(path), *argv[1:]])
            try:
                doc = cli._COMMANDS[args.command](args)
            except ValueError:
                continue
            validators[args.command.replace("-", "_")].validate(json.loads(cli._emit(doc, "json")))
            documents[args.command] += 1
    assert all(documents.values()), documents
