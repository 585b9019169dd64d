"""Command-line behavior: JSON in/out, exit codes, determinism."""

import argparse
import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import time

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qarith import cli, logic
from qarith.cli import main
from qarith.config import Config
from qarith.dynamics import (
    MAX_DIM,
    MAX_SAMPLES,
    build_model,
    detect_stopping_time,
    evolve_numeric,
)
from qarith.gates import GateDomainError, GateKind, GateStep, ProgramStepError, iterate_plus
from qarith.states import Ket
from qarith.terms import MAX_TERM_DEPTH, bijection_report, cumulative_size, evaluate_gates, term_of


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


@pytest.mark.parametrize("repeat", [[], ["--repeat", "0"], ["--repeat", "3"]])
def test_apply_roles_checked_for_any_repeat(tmp_path, capsys, repeat):
    # A count of 0 once returned the state without looking at the roles.
    path = write_state(tmp_path, "s.json", PAIR)
    code, out, err = run_cli(capsys, "apply", "plus", path, "--roles", "5,6", *repeat)
    assert (code, out) == (2, "")
    assert err == "error: role 5 out of range for a 2-register state\n"


MIXED = {
    "registers": 3,
    "terms": [
        {"labels": [3, 5, -1], "re": 0.6, "im": 0.0},
        {"labels": [-2, 1, 10**40], "re": 0.0, "im": 0.48},
        {"labels": [0, -7, 4], "re": 0.64, "im": 0.0},
    ],
}


@pytest.mark.parametrize("count", [0, 1, 2, 7])
@pytest.mark.parametrize("roles", [None, "2,0"])
def test_apply_repeat_matches_iterated_adder(tmp_path, capsys, count, roles):
    path = write_state(tmp_path, "s.json", MIXED)
    argv = ["apply", "plus", path, "--repeat", str(count)]
    if roles is not None:
        argv += ["--roles", roles]
    code, out, err = run_cli(capsys, *argv)
    want = iterate_plus(
        Ket.from_json(json.dumps(MIXED)), count, (0, 1) if roles is None else (2, 0)
    )
    assert (code, err) == (0, "")
    assert out == want.to_json() + "\n"


def test_apply_repeat_takes_one_pass(tmp_path, capsys):
    path = write_state(tmp_path, "s.json", MIXED)
    count = 1_000_000_000
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "apply", "plus", path, "--repeat", str(count))
    assert time.perf_counter() - start < 1.0
    assert (code, err) == (0, "")
    assert [t["labels"] for t in json.loads(out)["terms"]] == sorted(
        [n, m + count * n, r] for (n, m, r) in (t["labels"] for t in MIXED["terms"])
    )


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


def test_apply_label_past_int_text_limit_exits_2(capsys, monkeypatch):
    # Two 3,001-digit labels read fine; their 6,001-digit product cannot be
    # written as text.
    big = 10**3000
    doc = {"registers": 3, "terms": [{"labels": [big, big, 0], "re": 1.0, "im": 0.0}]}
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(doc)))
    code, out, err = run_cli(capsys, "apply", "times-reversible", "-")
    limit = sys.get_int_max_str_digits()
    assert code == 2 and out == ""
    assert err == (
        f"error: label in register 2 has 6001 digits, past the {limit}-digit limit "
        "on integers in text (PYTHONINTMAXSTRDIGITS)\n"
    )


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


def test_evolve_unwritable_out_exits_2(tmp_path, capsys):
    prefix = str(tmp_path / "missing" / "run")
    code, out, err = run_cli(capsys, "evolve", "2", "3", "--out", prefix)
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith(f"error: cannot write {prefix + '.csv'!r}")


def test_evolve_out_writes_both_or_neither(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "x.json").mkdir()
    code, out, err = run_cli(capsys, "evolve", "2", "3", "--out", "x")
    assert code == 2 and out == ""
    assert err.splitlines() == ["error: cannot write 'x.json': Is a directory"]
    assert [p.name for p in tmp_path.iterdir()] == ["x.json"]
    assert not any((tmp_path / "x.json").iterdir())


def test_evolve_out_keeps_earlier_files_on_failure(tmp_path, capsys, monkeypatch):
    # The csv is renamed into place before the json fails; it gets its
    # earlier content back.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "x.csv").write_text("old")
    (tmp_path / "x.json").mkdir()
    code, out, err = run_cli(capsys, "evolve", "2", "3", "--out", "x")
    assert code == 2 and out == ""
    assert err.splitlines() == ["error: cannot write 'x.json': Is a directory"]
    assert (tmp_path / "x.csv").read_text() == "old"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["x.csv", "x.json"]
    assert not any((tmp_path / "x.json").iterdir())
    assert not list(tmp_path.rglob("*.tmp"))


def test_evolve_out_replaces_earlier_files(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for name in ("x.csv", "x.json"):
        (tmp_path / name).write_text("old")
    umask = os.umask(0o027)
    try:
        code, _, _ = run_cli(capsys, "evolve", "2", "3", "--out", "x")
    finally:
        os.umask(umask)
    assert code == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["x.csv", "x.json"]
    assert (tmp_path / "x.csv").read_text().startswith("t,fidelity,leakage\n")
    assert json.loads((tmp_path / "x.json").read_text())["n"] == 2
    # Written as open() would write a new file.
    assert {(tmp_path / name).stat().st_mode & 0o777 for name in ("x.csv", "x.json")} == {0o640}


@pytest.mark.parametrize("prefix", ["", "dir/"])
def test_evolve_out_needs_a_file_name(tmp_path, capsys, monkeypatch, prefix):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "dir").mkdir()
    code, out, err = run_cli(capsys, "evolve", "2", "3", "--out", prefix)
    assert code == 2 and out == ""
    assert err.splitlines() == [f"error: --out PREFIX must end in a file name, got {prefix!r}"]
    assert [p.name for p in tmp_path.iterdir()] == ["dir"]
    assert not any((tmp_path / "dir").iterdir())


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


@pytest.mark.parametrize("key", ["t_max", "epsilon", "dt"])
def test_config_integer_too_large_for_a_float_exits_2(tmp_path, capsys, key):
    # A 400-digit integer has no float; it is a bad config value, not a crash.
    with pytest.raises(ValueError, match=f"^{key} is too large for a float$"):
        Config(**{key: 10**400})
    cfg = tmp_path / "big.json"
    cfg.write_text(f'{{"{key}": {10**400}}}')
    code, out, err = run_cli(capsys, "verify", "logic", "--config", str(cfg))
    assert (code, out, err) == (2, "", f"error: {key} is too large for a float\n")


@pytest.mark.parametrize("part", ["re", "im"])
def test_apply_amplitude_too_large_for_a_float_exits_2(capsys, monkeypatch, part):
    doc = {"registers": 2, "terms": [{"labels": [3, 4], "re": 0.0, "im": 0.0}]}
    doc["terms"][0][part] = 10**400
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(doc)))
    code, out, err = run_cli(capsys, "apply", "plus", "-")
    assert (code, out) == (2, "")
    assert err == "error: amplitude at (3, 4) is too large for a complex number\n"


@pytest.mark.parametrize(
    "field,flag,value,layer",
    [
        ("dim", "-D", 7, lambda: build_model(7)),
        ("dim", "-D", MAX_DIM + 2, lambda: build_model(MAX_DIM + 2)),
        ("dt", "--dt", 0.02, lambda: evolve_numeric(build_model(32), 2, 3, 1.0, 0.02)),
        ("dt", "--dt", 5e-324, lambda: evolve_numeric(build_model(32), 2, 3, 1.0, 5e-324)),
        ("epsilon", "--epsilon", 0.5,
         lambda: detect_stopping_time(build_model(32), 2, 3, 0.5, 1.5)),
        ("t_max", "--t-max", math.inf,
         lambda: detect_stopping_time(build_model(32), 2, 3, 1e-3, math.inf)),
        ("class_bound", "--class-bound", 4, lambda: bijection_report(4)),
        # not a config field: only `evolve` reads it
        (None, "--samples", MAX_SAMPLES + 1,
         lambda: detect_stopping_time(build_model(32), 2, 3, 1e-3, 1.5, MAX_SAMPLES + 1)),
    ],
    ids=["dim", "dim-max", "dt", "dt-min", "epsilon", "t_max", "class_bound", "samples"],
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


def test_largest_ring_accepted(capsys):
    code, out, err = run_cli(capsys, "evolve", "2", "3", "-D", str(MAX_DIM), "--samples", "2")
    assert code == 0
    assert json.loads(err)["D"] == MAX_DIM
    assert out.startswith("t,fidelity,leakage\n")


def test_enumerate_lists_class1(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "1", "16")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 16
    first = lines[0].split("\t")
    assert first == ["3", "P(M0,P(M0,M0))", "n+(m+k)"]
    assert lines[-1].split("\t") == ["18", "T(T(M0,M0),T(M0,M0))", "(nm)(kl)"]


@pytest.mark.parametrize("klass", [MAX_TERM_DEPTH, 1_000_000])
def test_enumerate_class_past_bound_exits_2(capsys, klass):
    # Rejected before any class size is computed, so a huge class fails fast.
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "enumerate", str(klass), "1")
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert err.splitlines() == [
        f"error: class must be at most {MAX_TERM_DEPTH - 1}, so its terms parse back, got {klass}"
    ]


@pytest.mark.parametrize("limit", [-1, 100_001, 10**30])
def test_enumerate_limit_out_of_range_exits_2(capsys, limit):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "enumerate", "3", str(limit))
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert err.splitlines() == [f"error: LIMIT must be in 0..100000, got {limit}"]


def test_enumerate_limit_bounds_accepted(capsys):
    assert run_cli(capsys, "enumerate", "1", "0")[:2] == (0, "")
    code, out, _ = run_cli(capsys, "enumerate", "0", "100000")
    assert code == 0 and len(out.splitlines()) == 3


def test_enumerate_largest_class_parses_back(capsys):
    code, out, _ = run_cli(capsys, "enumerate", str(MAX_TERM_DEPTH - 1), "1")
    assert code == 0
    [line] = out.splitlines()
    _, prefix, infix = line.split("\t")
    for text in (prefix, infix):
        assert run_cli(capsys, "show", text)[0] == 0


def test_eval_term_text(capsys):
    code, out, _ = run_cli(capsys, "eval", "(n+m)k", "2", "3", "4")
    assert code == 0
    doc = json.loads(out)
    assert doc["gates"] == doc["oracle"] == 20
    assert doc["agree"] is True
    assert doc["index"] == 13


def test_eval_term_index(capsys):
    code, out, _ = run_cli(capsys, "eval", "7", "1", "2", "3", "-4")
    assert code == 0
    assert json.loads(out)["oracle"] == -9
    # the encoder's bytes, not the report's own writer
    want = evaluate_gates(term_of(7), (1, 2, 3, -4))
    assert out == json.dumps(want.to_json_dict()) + "\n"


def test_apply_label_too_long_to_read_exits_2(capsys, monkeypatch):
    text = '{"registers": 2, "terms": [{"labels": [3, %s], "re": 1.0}]}' % ("7" * 4400)
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    code, out, err = run_cli(capsys, "apply", "plus", "-")
    assert code == 2 and out == ""
    assert err.startswith("error: label in register 1 has 4400 digits") and err.count("\n") == 1
    assert "set_int_max_str_digits" not in err


def test_eval_syntax_error_exits_2(capsys):
    code, _, err = run_cli(capsys, "eval", "P(M0", "1")
    assert code == 2


def test_eval_arity_error_exits_2(capsys):
    code, _, _ = run_cli(capsys, "eval", "7", "1", "2")
    assert code == 2


@pytest.mark.parametrize(
    "argv, message",
    [
        (["nm", "3", "3.5"], "arguments must be integers"),
        (["nm", "3", "7" * 5000], "argument has 5000 digits"),
        (["7" * 5000, "3"], "term index has 5000 digits"),
        (["nm", "7" * 3000, "7" * 3000], "gate result has 6000 digits"),
    ],
    ids=["not-an-integer", "long-argument", "long-index", "long-result"],
)
def test_eval_integer_text_errors_exit_2(capsys, argv, message):
    code, out, err = run_cli(capsys, "eval", *argv)
    assert code == 2 and out == ""
    assert err.startswith(f"error: {message}") and err.count("\n") == 1
    if "digits" in message:
        assert f"past the {sys.get_int_max_str_digits()}-digit limit" in err


def _deep_term(shape, depth):
    """Term text of the given depth and its arguments: a left-deep sum, or
    one leaf inside that many parentheses."""
    if shape == "sum":
        return "+".join(["n"] * (depth + 1)), ["1"] * (depth + 1)
    return "(" * depth + "n" + ")" * depth, ["1"]


@pytest.mark.parametrize("command", ["eval", "show"])
@pytest.mark.parametrize("shape", ["sum", "parens"])
def test_term_depth_bound(capsys, command, shape):
    text, args = _deep_term(shape, MAX_TERM_DEPTH)
    code, out, err = run_cli(capsys, command, text, *(args if command == "eval" else []))
    assert code == 0, err
    doc = json.loads(out)
    if command == "eval":
        assert doc["gates"] == doc["oracle"] == len(args)
    else:
        assert doc["arity"] == len(args)
    text, args = _deep_term(shape, MAX_TERM_DEPTH + 1)
    code, out, err = run_cli(capsys, command, text, *(args if command == "eval" else []))
    assert code == 2 and out == ""
    assert err == f"error: term nests deeper than MAX_TERM_DEPTH = {MAX_TERM_DEPTH}\n"


def test_long_sum_exits_2_without_traceback():
    # 600 leaves once overflowed the parser's recursion and exited 1.
    text = "+".join(["n"] * 600)
    proc = subprocess.run(
        [sys.executable, "-m", "qarith", "eval", text, *["1"] * 600],
        capture_output=True, text=True, check=False,
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: term nests deeper") and "Traceback" not in proc.stderr


DEEP_JSON = "[" * 100_000 + "]" * 100_000
# A label too long to read comes first, so the deep part is reached only
# when the document is read again to name that label.
LONG_LABEL_THEN_DEEP = '{"registers": 1, "terms": [{"label": ' + "9" * 5000 + '}], "x": ' + DEEP_JSON + "}"


@pytest.mark.parametrize("route", ["file", "stdin", "long-label", "config"])
def test_deeply_nested_json_exits_2_without_traceback(tmp_path, route):
    # Past the interpreter's recursion limit these once exited 1 with a
    # RecursionError traceback.
    doc = LONG_LABEL_THEN_DEEP if route == "long-label" else DEEP_JSON
    path = tmp_path / "deep.json"
    path.write_text(doc)
    argv = {
        "file": ["apply", "plus", str(path)],
        "stdin": ["apply", "plus", "-"],
        "long-label": ["apply", "plus", str(path)],
        "config": ["verify", "logic", "--config", str(path)],
    }[route]
    proc = subprocess.run(
        [sys.executable, "-m", "qarith", *argv],
        input=doc if route == "stdin" else "", capture_output=True, text=True, check=False,
    )
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert "nests too deeply to read" in proc.stderr and "Traceback" not in proc.stderr


@pytest.mark.parametrize("command", ["enumerate", "apply"])
def test_closed_stdout_exits_141_quietly(tmp_path, command):
    # Both outputs are far larger than a pipe buffer, so the command is
    # still writing when its reader goes away, as in `qarith ... | head -1`.
    big = tmp_path / "big.json"
    terms = [{"labels": [n, 1], "re": 1.0, "im": 0.0} for n in range(20_000)]
    big.write_text(json.dumps({"registers": 2, "terms": terms}))
    argv = {"enumerate": ["enumerate", "3", "100000"], "apply": ["apply", "plus", str(big)]}
    proc = subprocess.Popen(
        [sys.executable, "-m", "qarith", *argv[command]],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    first = proc.stdout.readline(100)
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 141
    assert first.startswith(b"723\t" if command == "enumerate" else b'{"registers": 2')
    assert err == ""


def test_show_indices_stop_below_class_13(capsys):
    # Class 13 terms are MAX_TERM_DEPTH + 1 deep, so their text would not parse back.
    bound = cumulative_size(MAX_TERM_DEPTH - 1)
    code, out, err = run_cli(capsys, "show", str(bound))
    assert code == 2 and out == "" and err.count("\n") == 1
    assert err.startswith(f"error: term index must be below cumulative_size({MAX_TERM_DEPTH - 1})")
    code, out, _ = run_cli(capsys, "show", str(bound - 1))
    assert code == 0
    prefix = json.loads(out)["prefix"]
    code, out, _ = run_cli(capsys, "show", prefix)
    assert code == 0 and json.loads(out)["index"] == bound - 1


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
    assert {c["name"] for c in report["checks"]} == {"truth_tables_dual", "bit_domain"}


@pytest.mark.parametrize("dim", ["8", "10"])
def test_verify_dynamics_on_small_rings(capsys, dim):
    # The smallest rings the CLI accepts leave no room for the pair (2, 3).
    code, out, err = run_cli(capsys, "verify", "dynamics", "-D", dim)
    assert code == 0, err
    assert json.loads(out)["ok"] is True


def test_verify_stopping_at_wide_epsilon(capsys):
    # At epsilon = 0.01 the fidelity crosses 1 - epsilon more than one grid
    # step before t = 1 for small |n|; the stopping times are still right.
    code, out, err = run_cli(
        capsys, "verify", "stopping", "-D", "512", "--t-max", "3.0", "--epsilon", "0.01"
    )
    assert (code, err) == (0, "")
    assert json.loads(out)["ok"] is True


def test_verify_stopping_runs_on_t_max(capsys):
    # No run stops before t = 0.5, so the checks that look for a stopping
    # time fail on that horizon; the bookkeeping check still passes.
    code, out, err = run_cli(capsys, "verify", "stopping", "--t-max", "0.5", "--seed", "0")
    assert (code, err) == (1, "")
    failed = {check["name"] for check in json.loads(out)["checks"] if not check["ok"]}
    assert failed == {"stop_near_unit", "off_peak_bound", "superadditivity"}


def test_verify_negative_seed_exits_2(capsys):
    code, out, err = run_cli(capsys, "verify", "logic", "--seed", "-1")
    assert code == 2 and out == ""
    assert err.splitlines() == ["error: seed must be a non-negative integer, got -1"]


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


# --- generated argv ----------------------------------------------------------
#
# Values per argument, in range, at a bound and out of range.  Costly
# values (the largest ring, the most samples, class bound 3, the longest
# enumeration) are drawn only at their bounds, and not in the combinations
# ``_costly`` names, so the whole test stays within seconds.  "<tmp>"
# stands for a fresh directory that holds the files named below.

_FILES = {
    "state.json": json.dumps(PAIR),
    "zero.json": json.dumps({"registers": 2, "terms": [{"labels": [0, 4], "re": 1.0, "im": 0.0}]}),
    "three.json": json.dumps({"registers": 3, "terms": [{"labels": [2, 3, 1], "re": 1.0, "im": 0.0}]}),
    "long.json": '{"registers": 1, "terms": [{"label": ' + "9" * 4400 + ', "re": 1.0}]}',
    "bad.json": "not json",
    "config.json": json.dumps({"D": 16, "epsilon": 0.01, "class_bound": 1}),
    "big.json": json.dumps({"class_bound": 3}),
    "wrong.json": json.dumps({"D": "16"}),
}
_TERMS = [
    "0", "7", "18", "722", str(cumulative_size(12) - 1), str(cumulative_size(12)), "9" * 5000,
    "P(M0,T(M0,M0))", "(n+m)+(kl)", "nm", "P(M0", "", "x" * 3, "(" * 14 + "n" + ")" * 14,
]
_VALUES = {
    "gate": ["plus", "minus", "times-strict", "times-reversible", "divide"],
    "state": ["<tmp>/" + name for name in _FILES] + ["<tmp>/missing.json", "-"],
    "--roles": ["0,1", "1,0", "0,1,2", "2,0", "5,6", "0,0", "-1,1", "a"],
    "--repeat": ["0", "1", "3", "-1", "1000000", "x"],
    "n": ["0", "2", "-3", "15", "16", "-99999999999999999999", "x"],
    "m": ["0", "3", "-4", "14", "x"],
    "--samples": ["2", "200", str(MAX_SAMPLES), "1", "0", str(MAX_SAMPLES + 1), "x"],
    "--out": ["<tmp>/trace", "<tmp>/sub/trace", "", "<tmp>/", "<tmp>/state.json/x"],
    "--config": ["<tmp>/config.json", "<tmp>/big.json", "<tmp>/wrong.json", "<tmp>/bad.json",
                 "<tmp>/missing.json"],
    "--dim": ["8", "10", "32", str(MAX_DIM), "7", "9", "0", "-8", str(MAX_DIM + 2), "x"],
    "--epsilon": ["0.001", "0.49", "1e-300", "0.5", "0", "-1", "nan", "inf", "x"],
    "--t-max": ["4", "1e-9", "1e300", "0", "-1", "nan", "inf", "x"],
    "--dt": ["0.005", "0.01", "1e-9", "0.0100001", "0", "nan", "x"],
    "--class-bound": ["0", "1", "3", "-1", "4", "x"],
    "--seed": ["0", "7", "99999999999999999999", "-1", "x"],
    "klass": ["0", "1", "2", "12", "13", "-1", "x"],
    "limit": ["0", "1", "50", "100000", "100001", "-1", "x"],
    "term": _TERMS,
    "args": ["1", "-2", "0", "3", "2", "-1", "x", "9" * 5000],
    "op": ["not", "and", "or", "xor"],
    "suite": [*sorted(cli.SUITE_NAMES), "all", "none"],
}


def _flag(argv, flag, default):
    return argv[argv.index(flag) + 1] if flag in argv[:-1] else default


def _costly(argv):
    """Whether an argument list, if valid, runs for more than about a second."""
    command = argv[0]
    config = {"<tmp>/config.json": ("16", "1"), "<tmp>/big.json": ("32", "3")}.get(
        _flag(argv, "--config", None), ("32", "2")
    )
    dim, bound = _flag(argv, "--dim", config[0]), _flag(argv, "--class-bound", config[1])
    if command == "verify":
        suite = argv[1]
        return (
            bound == "3" and suite in ("bijection", "church", "all")
            or bound == "2" and suite in ("church", "all")
        )
    if command == "enumerate":
        return argv[2:3] == ["100000"] and argv[1] not in ("0", "1", "2")
    if command == "evolve":
        return _flag(argv, "--samples", "200") == str(MAX_SAMPLES) and dim == str(MAX_DIM)
    return False


@st.composite
def _argv(draw):
    subparsers = next(
        a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    command = draw(st.sampled_from(sorted(subparsers.choices)))
    argv = [command]
    for action in subparsers.choices[command]._actions:
        if isinstance(action, argparse._HelpAction):
            continue
        flag = max(action.option_strings, key=len, default=None)
        pool = _VALUES[flag or action.dest]
        if flag is not None:
            if draw(st.booleans()):
                argv += [flag, draw(st.sampled_from(pool))]
        elif action.nargs in ("?", "*"):
            argv += draw(st.lists(st.sampled_from(pool), max_size=4 if action.nargs == "*" else 1))
        elif action.dest == "term":
            term = draw(st.sampled_from([*pool, None]))  # None: any short text
            argv.append(draw(st.text("PTM0(),+*nmk ", max_size=16)) if term is None else term)
        else:
            argv.append(draw(st.sampled_from(pool)))
    assume(not _costly(argv))
    if draw(st.integers(0, 19)) == 19:
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(["--bogus", "-h", "--"])))
    return argv


# Short state documents for "-", well formed or not.
_STDIN = st.sampled_from(["", "{", "[]"]) | st.builds(
    lambda registers, terms: json.dumps({"registers": registers, "terms": terms}),
    st.sampled_from([1, 2, 3, 0]),
    st.lists(
        st.fixed_dictionaries({
            "labels": st.lists(st.integers(-4, 4), min_size=1, max_size=3),
            "re": st.sampled_from([1.0, -0.5, 1e-20, 0]),
        }),
        max_size=3,
    ),
)


@settings(max_examples=250, derandomize=True, database=None, deadline=None)
@given(_argv(), _STDIN)
def test_any_argv_exits_cleanly(argv, stdin):
    # Every argument list the parser's grammar allows, valid or not, ends
    # with a documented exit code, no traceback and at most one error line.
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in _FILES.items():
            with open(f"{tmp}/{name}", "w") as f:
                f.write(text)
        argv = [arg.replace("<tmp>", tmp) for arg in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                pytest.MonkeyPatch.context() as mp:
            mp.setattr(sys, "stdin", io.StringIO(stdin))
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
    text = out.getvalue() + err.getvalue()
    assert code in (0, 1, 2, 3, 4), (argv, code)
    assert "Traceback" not in text, argv
    assert sum("error:" in line for line in err.getvalue().splitlines()) <= 1, (argv, err.getvalue())
