"""cli_verify: the qarith command line, one child process at a time.

One op is one ``python -m qarith ...`` process drawn from a fixed, seeded
mix of ``eval`` (by index and by text), ``evolve`` (default D and
``-D 256``), ``show``, ``enumerate``, ``apply plus -`` with a state on
stdin, and ``truth-table``.  Every process pays interpreter and numpy
start-up and starts with cold caches.  ``verify all --seed S`` runs only
in the traced run, where it gives the per-layer metric verify.all_s.
"""

from __future__ import annotations

import json
import random
import statistics
from pathlib import Path

from qarith import logic, states, terms

import bench
import ring_dynamics
import terms_eval
from bench import Op, Workload, digest

WHY = ("what a user types: interpreter and numpy start-up, cli and config, cold caches in every "
       "process; its traced run also times verify all")
IN_PROCESS = False
HELP_REPEATS = 7
DECKS = 5
# Op kinds per 20-op deck.  Start-up dominates every kind; evolve at D=256
# also rebuilds the dense model, so it is the slowest and p90 lies inside it
# (75-100%), while p50 lies among the 75% of fast commands.
SHARES = {
    "eval_index": 3,
    "eval_text": 3,
    "evolve": 3,
    "evolve_D256": 5,
    "show": 2,
    "enumerate": 2,
    "apply": 1,
    "truth_table": 1,
}
ALL_INDICES = terms_eval.WARM + terms_eval.FRESH


class Runner:
    """Runs qarith children; once ``traced_dir`` is set, through the tracing launcher."""

    def __init__(self) -> None:
        self.traced_dir: Path | None = None
        self.count = 0

    def __call__(self, argv: list, stdin: str | None = None):
        traced = None
        if self.traced_dir is not None:
            traced = self.traced_dir / f"op{self.count}"
            self.count += 1
        return bench.qarith(argv, stdin, traced)[1]


def _exited_ok(proc) -> str | None:
    if proc.returncode != 0:
        return f"exit code {proc.returncode}: {proc.stderr.strip()[-200:]}"
    return None


def check_eval(delta: int, args: tuple, want: int):
    def check(proc) -> str | None:
        if err := _exited_ok(proc):
            return err
        doc = json.loads(proc.stdout)
        if not doc["agree"] or doc["gates"] != doc["oracle"]:
            return f"gate result {doc['gates']} != oracle {doc['oracle']}"
        if doc["gates"] != want or doc["index"] != delta:
            return f"got value {doc['gates']} index {doc['index']}, expected {want} {delta}"
        return None

    return check


def check_evolve(dim: int, n: int):
    grid = ring_dynamics.T_MAX / (ring_dynamics.SAMPLES - 1)

    def check(proc) -> str | None:
        if err := _exited_ok(proc):
            return err
        lines = proc.stdout.splitlines()
        if lines[0] != "t,fidelity,leakage" or len(lines) != ring_dynamics.SAMPLES + 1:
            return f"trace has {len(lines) - 1} rows"
        rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
        for t, fid, leak in rows:
            if abs(fid + leak - 1.0) > ring_dynamics.TOL_BOOKKEEPING:
                return f"fidelity + leakage off 1 at t={t}"
            if abs(fid - float(ring_dynamics.closed_fidelity(dim, n, t))) > ring_dynamics.TOL_FIDELITY:
                return f"fidelity off the closed form at t={t}"
        sidecar = json.loads(proc.stderr)
        return ring_dynamics.check_stopping_time(dim, n, sidecar["T"], grid)

    return check


def check_stdout(want: str):
    def check(proc) -> str | None:
        if err := _exited_ok(proc):
            return err
        return None if proc.stdout == want else f"stdout differs from expected: {proc.stdout[:120]!r}"

    return check


def check_truth_table(name: str):
    def check(proc) -> str | None:
        if err := _exited_ok(proc):
            return err
        rows = [[int(v) for v in line.split()] for line in proc.stdout.splitlines()[1:]]
        if len(rows) != (2 if name == "not" else 4):
            return f"{len(rows)} rows"
        for row in rows:
            if row[-1] != terms_eval.LOGIC[name](*row[:-1]):
                return f"row {row} is wrong"
        return None

    return check


def _show_doc(delta: int) -> str:
    term = terms.term_of(delta)
    doc = {"index": delta, "prefix": terms.render_term(term), "infix": terms.render_infix(term),
           "arity": terms.arity(term)}
    return json.dumps(doc) + "\n"


def _enumerate_text(klass: int, limit: int) -> str:
    base = terms.cumulative_size(klass - 1)
    lines = []
    for delta in range(base, base + min(limit, terms.class_size(klass))):
        term = terms.term_of(delta)
        lines.append(f"{delta}\t{terms.render_term(term)}\t{terms.render_infix(term)}\n")
    return "".join(lines)


def _apply_case(rng: random.Random) -> tuple:
    amps, support = {}, rng.randint(1, 8)
    while len(amps) < support:
        amps[(rng.randint(-10**6, 10**6), rng.randint(-10**6, 10**6))] = complex(rng.gauss(0, 1), rng.gauss(0, 1))
    ket = states.Ket(2, amps).normalized()
    want = states.Ket(2, {(a, a + b): v for (a, b), v in ket.items()})
    return ket.to_json() + "\n", want.to_json() + "\n"


def _op(rng: random.Random, kind: str, runner: Runner) -> tuple:
    """(Op, its input description) for one op of ``kind``."""
    if kind in ("eval_index", "eval_text", "show"):
        delta = rng.randrange(ALL_INDICES if kind != "eval_text" else terms_eval.WARM)
        term = terms.term_of(delta)
        if kind == "show":
            argv = ["show", str(delta)]
            return Op(kind, " ".join(argv), runner, (argv,), check_stdout(_show_doc(delta))), argv
        args = tuple(rng.randint(-99, 99) for _ in range(terms.arity(term)))
        text = str(delta)
        if kind == "eval_text":
            text = (terms.render_term if rng.random() < 0.5 else terms.render_infix)(term)
        argv = ["eval", text, *map(str, args)]
        check = check_eval(delta, args, terms_eval.value(term, args))
        return Op(kind, " ".join(argv), runner, (argv,), check), argv
    if kind.startswith("evolve"):
        dim = 256 if kind == "evolve_D256" else 32
        n, m = ring_dynamics.pair(rng, dim)
        argv = ["evolve", str(n), str(m)] + (["-D", str(dim)] if dim != 32 else [])
        return Op(kind, " ".join(argv), runner, (argv,), check_evolve(dim, n)), argv
    if kind == "enumerate":
        klass, limit = rng.randint(1, 3), rng.randint(1, 50)
        argv = ["enumerate", str(klass), str(limit)]
        return Op(kind, " ".join(argv), runner, (argv,), check_stdout(_enumerate_text(klass, limit))), argv
    if kind == "apply":
        state, want = _apply_case(rng)
        argv = ["apply", "plus", "-"]
        return Op(kind, "apply plus - " + state.strip(), runner, (argv, state), check_stdout(want)), [argv, state]
    name = rng.choice(logic.OP_NAMES)
    argv = ["truth-table", name]
    return Op(kind, " ".join(argv), runner, (argv,), check_truth_table(name)), argv


def build(seed: int, smoke: bool = False) -> Workload:
    rng = random.Random(f"cli_verify-{seed}")
    runner = Runner()
    decks, inputs = [], []
    for _ in range(1 if smoke else DECKS):
        kinds = list(SHARES) if smoke else [k for k, c in SHARES.items() for _ in range(c)]
        rng.shuffle(kinds)
        deck = []
        for kind in kinds:
            op, described = _op(rng, kind, runner)
            deck.append(op)
            inputs.append([kind, described])
        decks.append(deck)
    return Workload("cli_verify", decks, digest(inputs), extra={"runner": runner})


def startup_s(repeats: int) -> tuple:
    """Median wall time of ``python -m qarith --help``, and any failures."""
    times, problems = [], []
    for _ in range(repeats):
        dt, proc = bench.qarith(["--help"])
        times.append(dt)
        if proc.returncode != 0:
            problems.append(f"--help exited {proc.returncode}")
    return statistics.median(times), times, problems
