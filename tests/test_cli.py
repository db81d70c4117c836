import json
from pathlib import Path

import jsonschema
import pytest

from repfreq import cli
from repfreq.cli import dispatch
from .conftest import fixture_path

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
        ["concentration", "--dist", str(DIST_FILE), "--delta", "0.9", "--reps", "10", "--c", "nan"],
    ],
)
def test_non_finite_or_negative_numbers_are_usage_errors(capsys, argv):
    argv = [str(fixture_path("product_choice")) if arg == "GAME" else arg for arg in argv]
    with pytest.raises(SystemExit) as exc:
        dispatch(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def test_missing_file_exits_1(capsys):
    code, _ = run_cli(capsys, "fstar", "/no/such/game.json")
    assert code == 1


def test_invalid_game_exits_1(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"actions1": ["a"], "actions2": ["x", "y"], "u1": [[0, 0]], "u2": [[0, 0]]}')
    code, _ = run_cli(capsys, "analyze", str(bad))
    assert code == 1


def test_runtime_error_exits_1_with_one_stderr_line(capsys, monkeypatch):
    def fail(args):
        raise RuntimeError("block entered compensation with a payoff deficit (-0.1)")

    monkeypatch.setitem(cli._COMMANDS, "fstar", fail)
    code = dispatch(["fstar", str(fixture_path("product_choice"))])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: block entered compensation with a payoff deficit (-0.1)"]


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
