"""Command-line front end: gate application, evolution traces, term tools.

Exit codes: 0 success, 1 verification failures or gate/arithmetic
disagreement, 2 unreadable input or bad arguments, 3 gate domain
violations, 4 ring window violations, 141 (128 + SIGPIPE) stdout closed
by its reader.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import re
import shutil
import sys
import tempfile
from pathlib import Path

from .config import (
    MAX_DIM,
    MAX_SAMPLES,
    MIN_DIM,
    SUITE_NAMES,
    Config,
    WindowError,
    check_samples,
)
from .gates import (
    AncillaError,
    GateDomainError,
    GateKind,
    ProgramStepError,
    apply_gate,
    repeat_plus,
)
from .logic import OP_NAMES, DisagreementError, truth_table_text
from .states import Ket, check_int_text
from .terms import (
    MAX_TERM_DEPTH,
    arity,
    cumulative_size,
    enumerate_class,
    evaluate_gates,
    index_of,
    parse_term,
    render_infix,
    render_term,
    term_of,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_PARSE = 2
EXIT_DOMAIN = 3
EXIT_WINDOW = 4
EXIT_PIPE = 141

# Exit code of each exception the commands raise, looked up along the
# exception's method resolution order so the most specific entry wins.
_EXIT_CODES: dict[type[Exception], int] = {
    ValueError: EXIT_PARSE,
    GateDomainError: EXIT_DOMAIN,
    AncillaError: EXIT_DOMAIN,
    WindowError: EXIT_WINDOW,
    DisagreementError: EXIT_FAIL,
}

# Indices of class <= _MAX_INDEX_CLASS: their terms' prefix and infix
# forms are at most MAX_TERM_DEPTH deep, so they parse back.
_MAX_INDEX_CLASS = MAX_TERM_DEPTH - 1

# Most terms one enumerate prints.  Lines stream as their terms are
# built, so the limit bounds time: 100,000 class-12 terms take about
# 17-27 s on a 2-vCPU machine.
_MAX_ENUMERATE_LIMIT = 100_000

_GATE_NAMES = {
    "plus": GateKind.PLUS,
    "minus": GateKind.MINUS,
    "times-strict": GateKind.TIMES_STRICT,
    "times-reversible": GateKind.TIMES_REVERSIBLE,
}


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise ValueError(f"cannot read {path!r}: {exc}") from exc


def _write_all(texts: dict[str, str]) -> None:
    """Write each text to its path, all of them or none.

    Each target gets a temporary directory beside it, holding its new text
    and a hard link to its earlier file, if any.  Only when every text is
    written are they renamed into place.  On any failure the targets
    already renamed get their earlier file back, or are removed if they
    had none.  The temporary directories go either way.
    """
    asides: dict[str, str] = {}
    placed: list[str] = []
    try:
        for path, text in texts.items():
            aside = asides[path] = tempfile.mkdtemp(dir=os.path.dirname(path) or ".", suffix=".tmp")
            Path(aside, "new").write_text(text)
            if os.path.isfile(path):
                os.link(path, os.path.join(aside, "old"), follow_symlinks=False)
        for path, aside in asides.items():
            os.replace(os.path.join(aside, "new"), path)
            placed.append(path)
    except OSError as exc:
        for done in placed:
            old = os.path.join(asides[done], "old")
            with contextlib.suppress(OSError):
                if os.path.lexists(old):
                    os.replace(old, done)
                else:
                    os.remove(done)
        raise ValueError(f"cannot write {path!r}: {exc.strerror or exc}") from exc
    finally:
        for aside in asides.values():
            shutil.rmtree(aside, ignore_errors=True)


def _parse_roles(text: str | None) -> tuple[int, ...] | None:
    if text is None:
        return None
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"roles must be comma-separated integers, got {text!r}") from None


def _config_from_args(args: argparse.Namespace) -> Config:
    base = Config() if args.config is None else Config.from_file(args.config)
    return base.with_overrides(
        dim=getattr(args, "dim", None),
        epsilon=getattr(args, "epsilon", None),
        dt=getattr(args, "dt", None),
        t_max=getattr(args, "t_max", None),
        class_bound=getattr(args, "class_bound", None),
    )


def cmd_apply(args: argparse.Namespace) -> int:
    state = Ket.from_json(_read_text(args.state))
    kind = _GATE_NAMES[args.gate]
    roles = _parse_roles(args.roles)
    if args.repeat != 1 and kind is not GateKind.PLUS:
        raise ValueError("--repeat is only meaningful for the plus gate")
    if kind is GateKind.PLUS and args.repeat != 1:
        out = repeat_plus(state, args.repeat, (0, 1) if roles is None else roles)
    else:
        out = apply_gate(state, kind, roles)
    print(out.to_json())
    return EXIT_OK


def cmd_evolve(args: argparse.Namespace) -> int:
    # Imported here, not at the top: dynamics loads numpy, which only
    # evolve and verify need.
    from .dynamics import build_model, detect_stopping_time

    if args.out is not None and not os.path.basename(args.out):
        raise ValueError(f"--out PREFIX must end in a file name, got {args.out!r}")
    check_samples(args.samples)
    config = _config_from_args(args)
    model = build_model(config.dim)
    trace = detect_stopping_time(
        model, args.n, args.m, config.epsilon, config.t_max, args.samples
    )
    csv_text = trace.to_csv()
    sidecar = json.dumps(trace.sidecar_dict(config.dim))
    if args.out is None:
        sys.stdout.write(csv_text)
        sys.stderr.write(sidecar + "\n")
    else:
        _write_all({args.out + ".csv": csv_text, args.out + ".json": sidecar + "\n"})
    return EXIT_OK


def cmd_enumerate(args: argparse.Namespace) -> int:
    # Checked before any class size is computed: sizes grow doubly
    # exponentially with the class.
    if args.klass > _MAX_INDEX_CLASS:
        raise ValueError(
            f"class must be at most {_MAX_INDEX_CLASS}, so its terms parse back, "
            f"got {args.klass}"
        )
    if not 0 <= args.limit <= _MAX_ENUMERATE_LIMIT:
        raise ValueError(f"LIMIT must be in 0..{_MAX_ENUMERATE_LIMIT}, got {args.limit}")
    for delta, term in enumerate_class(args.klass, args.limit):
        print(f"{delta}\t{render_term(term)}\t{render_infix(term)}")
    return EXIT_OK


# Decimal integer text as ``int()`` reads it.
_INTEGER_TEXT = re.compile(r"\s*[+-]?\d+(?:_\d+)*\s*")


def _term_from_text(text: str):
    if re.fullmatch(r"\d+", text):
        check_int_text(text, "term index")
        index = int(text)
        if index >= cumulative_size(_MAX_INDEX_CLASS):
            raise ValueError(
                f"term index must be below cumulative_size({_MAX_INDEX_CLASS}), "
                f"i.e. of class <= {_MAX_INDEX_CLASS}, so its term parses back"
            )
        return term_of(index)
    return parse_term(text)


def cmd_eval(args: argparse.Namespace) -> int:
    term = _term_from_text(args.term)
    try:
        values = tuple(int(v) for v in args.args)
    except ValueError:
        for v in args.args:
            if _INTEGER_TEXT.fullmatch(v):
                check_int_text(v, "argument")
        raise ValueError("arguments must be integers") from None
    report = evaluate_gates(term, values)
    check_int_text(report.gate_result, "gate result")
    check_int_text(report.oracle_result, "oracle result")
    print(report.to_json())
    return EXIT_OK if report.agree else EXIT_FAIL


def cmd_truth_table(args: argparse.Namespace) -> int:
    sys.stdout.write(truth_table_text(args.op))
    return EXIT_OK


def cmd_show(args: argparse.Namespace) -> int:
    term = _term_from_text(args.term)
    doc = {
        "index": index_of(term),
        "prefix": render_term(term),
        "infix": render_infix(term),
        "arity": arity(term),
    }
    print(json.dumps(doc))
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    from .verify import run_suite

    config = _config_from_args(args)
    report = run_suite(args.suite, config, args.seed)
    print(json.dumps(report, indent=2))
    return EXIT_OK if report["ok"] else EXIT_FAIL


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    """Flags that evolve and verify both read; explicit flags win over the file."""
    parser.add_argument("--config", metavar="FILE", help="JSON config file")
    parser.add_argument("--dim", "-D", type=int, help=f"ring size (even, {MIN_DIM}..{MAX_DIM})")
    parser.add_argument("--epsilon", type=float, help="fidelity threshold margin")
    parser.add_argument("--t-max", dest="t_max", type=float, help="trace horizon")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qarith",
        description="Sparse integer-register simulator: arithmetic gates, "
        "adder dynamics, boolean layer, operation terms.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("apply", help="apply a gate to a JSON state")
    p.add_argument("gate", choices=sorted(_GATE_NAMES))
    p.add_argument("state", help="state JSON file, or - for stdin")
    p.add_argument("--roles", help="comma-separated register roles")
    p.add_argument("--repeat", type=int, default=1, help="apply the plus gate this many times")
    p.set_defaults(func=cmd_apply)

    p = sub.add_parser("evolve", help="trace an addition run and detect its stopping time")
    p.add_argument("n", type=int, help="control register label")
    p.add_argument("m", type=int, help="initial ring register label")
    p.add_argument("--samples", type=int, default=200, help=f"grid points (2..{MAX_SAMPLES})")
    p.add_argument("--out", metavar="PREFIX", help="write PREFIX.csv and PREFIX.json")
    _add_config_flags(p)
    p.set_defaults(func=cmd_evolve)

    p = sub.add_parser("enumerate", help="list operation terms of one class in index order")
    p.add_argument("klass", type=int, metavar="CLASS", help=f"term class (at most {_MAX_INDEX_CLASS})")
    p.add_argument("limit", type=int, nargs="?", default=50, metavar="LIMIT",
                   help=f"most terms to list (0..{_MAX_ENUMERATE_LIMIT})")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("eval", help="dual-evaluate a term on integer arguments")
    p.add_argument("term", help="term text (prefix or infix) or a decimal index")
    p.add_argument("args", nargs="*", help="integer arguments, one per free leaf")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("show", help="index and renderings of a term")
    p.add_argument("term", help="term text (prefix or infix) or a decimal index")
    p.set_defaults(func=cmd_show)

    p = sub.add_parser("truth-table", help="print a connective's truth table")
    p.add_argument("op", choices=OP_NAMES)
    p.set_defaults(func=cmd_truth_table)

    p = sub.add_parser("verify", help="run a named verification suite")
    p.add_argument("suite", choices=sorted((*SUITE_NAMES, "all")))
    p.add_argument("--seed", type=int, default=0)
    _add_config_flags(p)
    p.add_argument("--dt", type=float, help="integrator step bound")
    p.add_argument("--class-bound", dest="class_bound", type=int,
                   help="term class bound for sweeps")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        # Flushed here, so a reader that closes early surfaces below
        # rather than in the interpreter's final flush.
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # Whatever is still buffered goes nowhere, quietly.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE
    except (ProgramStepError, *_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        cause = exc.cause if isinstance(exc, ProgramStepError) else exc
        return next(_EXIT_CODES[t] for t in type(cause).__mro__ if t in _EXIT_CODES)


if __name__ == "__main__":
    sys.exit(main())
