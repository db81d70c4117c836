import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

from repfreq import cli, concentration, linprog, simulate
from repfreq.cli import dispatch
from repfreq.game import emit_game
from .conftest import cycling_game, fixture_path

SCHEMAS = Path(__file__).resolve().parent.parent / "schemas"
DIST_FILE = Path(__file__).resolve().parent.parent / "fixtures" / "tail_dist_quarter.json"


def run_cli(capsys, *argv) -> tuple[int, str]:
    code = dispatch(list(argv))
    out = capsys.readouterr().out
    return code, out


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


@pytest.mark.parametrize(
    "change, message",
    [
        ({"order1": [1, "H"]}, "order1 must be an array of action labels"),
        ({"order1": "HL"}, "order1 must be an array of action labels"),
        ({"u1": [[True, -0.2], [1.0, 0.0]]}, "u1 must be an array of numeric rows"),
        ({"u1": [[10**400, -0.2], [1.0, 0.0]]}, "int too large to convert to float"),
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


def test_runtime_error_exits_1_with_one_stderr_line(capsys, monkeypatch):
    def fail(args):
        raise RuntimeError("block entered compensation with a payoff deficit (-0.1)")

    monkeypatch.setitem(cli._COMMANDS, "fstar", fail)
    code = dispatch(["fstar", str(fixture_path("product_choice"))])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: block entered compensation with a payoff deficit (-0.1)"]


def test_simplex_past_its_pivot_cap_exits_1_with_one_stderr_line(capsys, monkeypatch):
    monkeypatch.setattr(linprog, "_MAX_PIVOTS", 0)
    code = dispatch(["fstar", str(fixture_path("product_choice"))])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: simplex made 0 pivots without finishing; the ratio test is cycling"]


def test_analyze_bounds_ignore_a_large_u2_scale(capsys, tmp_path):
    # At this scale the simplex cycles on the LP that asks whether b1 and b2
    # can both be best replies (see test_linprog); the bounds must not need it.
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


def test_shared_parser_keeps_no_state_between_calls(capsys):
    assert cli.build_parser() is cli.build_parser()
    game = str(fixture_path("product_choice"))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(Path(cli.__file__).resolve().parents[1]), env.get("PYTHONPATH", "")])
    fresh: dict[tuple[str, ...], str] = {}

    def check(*argv) -> str:
        code, out = run_cli(capsys, *argv)
        assert code == 0
        if argv not in fresh:
            proc = subprocess.run(
                [sys.executable, "-m", "repfreq.cli", *argv], capture_output=True, text=True, env=env, timeout=120
            )
            assert proc.returncode == 0, proc.stderr
            fresh[argv] = proc.stdout
        assert out == fresh[argv]
        return out

    check("fstar", game, "--equality", "--tol", "1e-6", "--format", "human", "--method", "prop1")
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
