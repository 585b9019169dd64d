"""Command-line behavior: JSON in/out, exit codes, determinism."""

import json
import math
import subprocess
import sys

import pytest

from qarith import cli, logic
from qarith.cli import main
from qarith.config import Config
from qarith.dynamics import MAX_SAMPLES, build_model, detect_stopping_time, evolve_numeric
from qarith.gates import GateDomainError, GateKind, GateStep, ProgramStepError
from qarith.terms import bijection_report


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_state(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


PAIR = {"registers": 2, "terms": [{"labels": [3, 4], "re": 1.0, "im": 0.0}]}


def test_apply_plus(tmp_path, capsys):
    path = write_state(tmp_path, "s.json", PAIR)
    code, out, _ = run_cli(capsys, "apply", "plus", path)
    assert code == 0
    doc = json.loads(out)
    assert doc["terms"] == [{"labels": [3, 7], "re": 1.0, "im": 0.0}]


def test_apply_roles_and_repeat(tmp_path, capsys):
    path = write_state(tmp_path, "s.json", PAIR)
    code, out, _ = run_cli(capsys, "apply", "plus", path, "--roles", "1,0", "--repeat", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["terms"][0]["labels"] == [11, 4]


def test_apply_strict_zero_exits_3(tmp_path, capsys):
    path = write_state(
        tmp_path, "z.json", {"registers": 2, "terms": [{"labels": [0, 3], "re": 1.0, "im": 0.0}]}
    )
    code, _, err = run_cli(capsys, "apply", "times-strict", path)
    assert code == 3
    assert "label 0" in err


def test_apply_malformed_state_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{nope")
    code, _, err = run_cli(capsys, "apply", "plus", str(path))
    assert code == 2
    assert "error" in err


def test_apply_missing_file_exits_2(capsys):
    code, _, err = run_cli(capsys, "apply", "plus", "/nonexistent/state.json")
    assert code == 2


def test_evolve_window_violation_exits_4(capsys):
    code, _, err = run_cli(capsys, "evolve", "20", "20")
    assert code == 4
    assert "ring" in err


def test_evolve_writes_trace_and_sidecar(tmp_path, capsys):
    prefix = str(tmp_path / "run")
    code, out, _ = run_cli(capsys, "evolve", "2", "3", "--out", prefix)
    assert code == 0
    csv_text = (tmp_path / "run.csv").read_text()
    lines = csv_text.splitlines()
    assert lines[0] == "t,fidelity,leakage"
    assert len(lines) == 201
    sidecar = json.loads((tmp_path / "run.json").read_text())
    assert sidecar["n"] == 2 and sidecar["m"] == 3 and sidecar["D"] == 32
    assert sidecar["epsilon"] == 1e-3
    assert abs(sidecar["T"] - 1.0) <= 1.5 / 199


def test_evolve_stdout(capsys):
    code, out, err = run_cli(capsys, "evolve", "1", "2", "--samples", "20")
    assert code == 0
    assert out.splitlines()[0] == "t,fidelity,leakage"
    assert json.loads(err)["n"] == 1


def test_evolve_config_overrides(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"D": 16, "epsilon": 0.01}))
    prefix = str(tmp_path / "cfgrun")
    code, _, _ = run_cli(capsys, "evolve", "2", "3", "--config", str(cfg), "--out", prefix)
    assert code == 0
    sidecar = json.loads((tmp_path / "cfgrun.json").read_text())
    assert sidecar["D"] == 16 and sidecar["epsilon"] == 0.01
    # flags beat the file
    code, _, _ = run_cli(
        capsys, "evolve", "2", "3", "--config", str(cfg), "--dim", "32", "--out", prefix
    )
    sidecar = json.loads((tmp_path / "cfgrun.json").read_text())
    assert sidecar["D"] == 32


def test_bad_config_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"D": 7}))
    code, _, err = run_cli(capsys, "evolve", "2", "3", "--config", str(cfg))
    assert code == 2
    cfg.write_text(json.dumps({"unknown_key": 1}))
    code, _, _ = run_cli(capsys, "evolve", "2", "3", "--config", str(cfg))
    assert code == 2


@pytest.mark.parametrize(
    "doc",
    [
        {"dt": "x"},
        {"epsilon": "0.1"},
        {"t_max": None},
        {"t_max": True},
        {"class_bound": True},
        {"tolerances": 5},
        {"tolerances": {"norm": None}},
    ],
    ids=json.dumps,
)
def test_mistyped_config_exits_2(tmp_path, capsys, doc):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, "verify", "logic", "--config", str(cfg))
    assert code == 2
    assert err.startswith("error: ")


@pytest.mark.parametrize(
    "field,flag,value,layer",
    [
        ("dim", "-D", 7, lambda: build_model(7)),
        ("dt", "--dt", 0.02, lambda: evolve_numeric(build_model(32), 2, 3, 1.0, 0.02)),
        ("epsilon", "--epsilon", 0.5,
         lambda: detect_stopping_time(build_model(32), 2, 3, 0.5, 1.5)),
        ("t_max", "--t-max", math.inf,
         lambda: detect_stopping_time(build_model(32), 2, 3, 1e-3, math.inf)),
        ("class_bound", "--class-bound", 4, lambda: bijection_report(4)),
        # not a config field: only `evolve` reads it
        (None, "--samples", MAX_SAMPLES + 1,
         lambda: detect_stopping_time(build_model(32), 2, 3, 1e-3, 1.5, MAX_SAMPLES + 1)),
    ],
    ids=["dim", "dt", "epsilon", "t_max", "class_bound", "samples"],
)
def test_out_of_range_bound_rejected_alike(capsys, field, flag, value, layer):
    with pytest.raises(ValueError) as from_layer:
        layer()
    if field is None:
        command = ["evolve", "2", "3"]
    else:
        command = ["verify", "logic"]
        with pytest.raises(ValueError) as from_config:
            Config(**{field: value})
        assert str(from_config.value) == str(from_layer.value)
    code, _, err = run_cli(capsys, *command, flag, str(value))
    assert (code, err) == (2, f"error: {from_layer.value}\n")


def test_enumerate_lists_class1(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "1", "16")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 16
    first = lines[0].split("\t")
    assert first == ["3", "P(M0,P(M0,M0))", "n+(m+k)"]
    assert lines[-1].split("\t") == ["18", "T(T(M0,M0),T(M0,M0))", "(nm)(kl)"]


def test_eval_term_text(capsys):
    code, out, _ = run_cli(capsys, "eval", "(n+m)k", "2", "3", "4")
    assert code == 0
    doc = json.loads(out)
    assert doc["gates"] == doc["oracle"] == 20
    assert doc["agree"] is True
    assert doc["index"] == 13


def test_eval_term_index(capsys):
    code, out, _ = run_cli(capsys, "eval", "7", "1", "2", "3", "4")
    assert code == 0
    assert json.loads(out)["oracle"] == 15


def test_eval_syntax_error_exits_2(capsys):
    code, _, err = run_cli(capsys, "eval", "P(M0", "1")
    assert code == 2


def test_eval_arity_error_exits_2(capsys):
    code, _, _ = run_cli(capsys, "eval", "7", "1", "2")
    assert code == 2


def test_show_term(capsys):
    code, out, _ = run_cli(capsys, "show", "P(P(M0,M0),T(M0,M0))")
    assert code == 0
    doc = json.loads(out)
    assert doc == {"index": 7, "prefix": "P(P(M0,M0),T(M0,M0))",
                   "infix": "(n+m)+(kl)", "arity": 4}


def test_truth_table_output(capsys):
    code, out, _ = run_cli(capsys, "truth-table", "or")
    assert code == 0
    rows = [line.split() for line in out.splitlines()]
    assert rows[0] == ["p", "q", "result"]
    assert rows[1:] == [["0", "0", "0"], ["0", "1", "1"], ["1", "0", "1"], ["1", "1", "1"]]


def test_truth_table_disagreement_exits_1(capsys, monkeypatch):
    monkeypatch.setattr(logic, "eval_with_gates", lambda name, *bits: 1 - logic.and_(*bits))
    code, _, err = run_cli(capsys, "truth-table", "and")
    assert code == 1
    assert "gates give" in err


@pytest.mark.parametrize(
    "cause,expected",
    [(GateDomainError((0, 3), (0, 1)), 3), (ValueError("bad roles"), 2)],
)
def test_program_step_error_exits_by_cause(capsys, monkeypatch, cause, expected):
    def failing(term, args):
        raise ProgramStepError(0, GateStep(GateKind.TIMES_STRICT, (0, 1)), cause)

    monkeypatch.setattr(cli, "evaluate_gates", failing)
    code, _, err = run_cli(capsys, "eval", "7", "1", "2", "3", "4")
    assert code == expected
    assert err.startswith("error: step 0 (TIMES_STRICT (0, 1))")


def test_verify_suite_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "logic")
    assert code == 0
    report = json.loads(out)
    assert report["ok"] is True
    assert report["failed"] == 0
    assert {c["name"] for c in report["checks"]} == {
        "truth_tables_dual", "de_morgan", "bit_domain",
    }


def test_verify_deterministic_across_processes():
    cmd = [sys.executable, "-m", "qarith", "verify", "hilbert", "--seed", "7"]
    first = subprocess.run(cmd, capture_output=True, text=True, check=True)
    second = subprocess.run(cmd, capture_output=True, text=True, check=True)
    assert first.stdout == second.stdout
    assert json.loads(first.stdout)["ok"] is True


def test_unknown_suite_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "nonsense"])
    assert exc.value.code == 2
