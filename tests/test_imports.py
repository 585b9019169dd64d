"""Import graph: the package root loads no layer, a name read from it
loads its own, and numpy loads only in the commands that propagate a state.

Each case runs in a fresh interpreter, since a module once imported stays
in ``sys.modules`` for the rest of the process.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qarith

SRC = str(Path(qarith.__file__).resolve().parents[1])
STATE = json.dumps({"registers": 2, "terms": [{"labels": [3, 4], "re": 1.0, "im": 0.0}]})

# Runs cli.main on its arguments, then reports on stderr's last line
# whether numpy was loaded and the exit code.
CLI_PROBE = """
import sys
from qarith import cli
try:
    code = cli.main(sys.argv[1:])
except SystemExit as exc:
    code = exc.code
sys.stdout.flush()
print("numpy" in sys.modules, code, file=sys.stderr)
"""


def run_python(*args, stdin=None):
    env = {**os.environ, "PYTHONPATH": SRC + os.pathsep + os.environ.get("PYTHONPATH", "")}
    proc = subprocess.run(
        [sys.executable, *args], input=stdin, capture_output=True, text=True, env=env, check=False
    )
    assert "Traceback" not in proc.stderr, proc.stderr
    return proc


@pytest.mark.parametrize("module", ["qarith", "qarith.cli", "qarith.config"])
def test_import_leaves_numpy_out(module):
    proc = run_python("-c", f"import sys, {module}; print('numpy' in sys.modules)")
    assert proc.stdout == "False\n"


def test_cli_import_leaves_typing_out():
    # Every CLI start pays for what qarith.cli imports.  -S keeps site
    # hooks of the interpreter's installation from importing typing first.
    proc = run_python("-S", "-c", "import sys, qarith.cli; print('typing' in sys.modules)")
    assert proc.stdout == "False\n"


@pytest.mark.parametrize(
    "argv,stdin,numpy_loaded,code",
    [
        (["--help"], None, False, 0),
        (["verify", "--help"], None, False, 0),
        (["apply", "plus", "-"], STATE, False, 0),
        (["eval", "13", "2", "3", "4"], None, False, 0),
        (["show", "5"], None, False, 0),
        (["enumerate", "2", "5"], None, False, 0),
        (["truth-table", "and"], None, False, 0),
        (["evolve", "2", "3"], None, True, 0),
        (["evolve", "20", "20"], None, True, 4),
        (["verify", "logic"], None, True, 0),
    ],
    ids=lambda v: "_".join(v) if isinstance(v, list) else None,
)
def test_cli_loads_numpy_only_to_propagate(argv, stdin, numpy_loaded, code):
    proc = run_python("-c", CLI_PROBE, *argv, stdin=stdin)
    assert proc.stderr.splitlines()[-1] == f"{numpy_loaded} {code}"


@pytest.mark.parametrize(
    "statement,loaded",
    [
        ("import qarith", []),
        ("import qarith.config", ["config"]),
        ("from qarith import gates, states", ["gates", "states"]),
        ("from qarith import dynamics", ["config", "dynamics", "states"]),
        ("from qarith import Ket", ["states"]),
    ],
)
def test_import_loads_only_its_layers(statement, loaded):
    # The package root loads no layer; a layer loads what it imports.
    script = f"""
import sys
{statement}
print(sorted(name for name in sys.modules if name.startswith("qarith.")))
"""
    proc = run_python("-c", script)
    assert proc.stdout == f"{[f'qarith.{name}' for name in loaded]}\n"


def test_package_root_resolves_every_name():
    script = """
import inspect
import sys
import qarith
print("numpy" in sys.modules)
print([name for name in qarith.__all__ if name not in dir(qarith)])
values = {name: getattr(qarith, name) for name in qarith.__all__}
# Each name is its defining module's own object, and a class or function
# names that module as its home.
print([
    name
    for module, names in qarith._EXPORTS.items()
    for name in names
    if values[name] is not getattr(sys.modules[f"qarith.{module}"], name)
    or (inspect.isclass(values[name]) or inspect.isfunction(values[name]))
    and values[name].__module__ != f"qarith.{module}"
])
import qarith.config
print(qarith.WindowError is qarith.dynamics.WindowError is qarith.config.WindowError)
print(values["build_model"] is qarith.dynamics.build_model)
print(qarith.dynamics is sys.modules["qarith.dynamics"])
try:
    qarith.no_such_name
except AttributeError as exc:
    print(exc)
"""
    proc = run_python("-c", script)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.splitlines() == [
        "False", "[]", "[]", "True", "True", "True", "module 'qarith' has no attribute 'no_such_name'",
    ]
