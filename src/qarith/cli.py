"""Command-line front end: gate application, evolution traces, term tools.

Exit codes: 0 success, 1 verification failures or gate/arithmetic
disagreement, 2 unreadable input or bad arguments, 3 gate domain
violations, 4 ring window violations.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

from .config import Config
from .dynamics import (
    MAX_SAMPLES,
    MIN_DIM,
    WindowError,
    build_model,
    check_samples,
    detect_stopping_time,
)
from .gates import (
    AncillaError,
    GateDomainError,
    GateKind,
    ProgramStepError,
    apply_gate,
    iterate_plus,
)
from .logic import OP_NAMES, DisagreementError, truth_table_text
from .states import Ket
from .terms import (
    arity,
    enumerate_class,
    evaluate_gates,
    index_of,
    parse_term,
    render_infix,
    render_term,
    term_of,
)
from .verify import SUITES, run_suite

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_PARSE = 2
EXIT_DOMAIN = 3
EXIT_WINDOW = 4

# Exit code of each exception the commands raise, looked up along the
# exception's method resolution order so the most specific entry wins.
_EXIT_CODES: dict[type[Exception], int] = {
    ValueError: EXIT_PARSE,
    GateDomainError: EXIT_DOMAIN,
    AncillaError: EXIT_DOMAIN,
    WindowError: EXIT_WINDOW,
    DisagreementError: EXIT_FAIL,
}

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
        out = iterate_plus(state, args.repeat, (0, 1) if roles is None else roles)
    else:
        out = apply_gate(state, kind, roles)
    print(out.to_json())
    return EXIT_OK


def cmd_evolve(args: argparse.Namespace) -> int:
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
        Path(args.out + ".csv").write_text(csv_text)
        Path(args.out + ".json").write_text(sidecar + "\n")
    return EXIT_OK


def cmd_enumerate(args: argparse.Namespace) -> int:
    for item in enumerate_class(args.klass, args.limit):
        print(f"{item.delta}\t{render_term(item.term)}\t{render_infix(item.term)}")
    return EXIT_OK


def _term_from_text(text: str):
    if re.fullmatch(r"\d+", text):
        return term_of(int(text))
    return parse_term(text)


def cmd_eval(args: argparse.Namespace) -> int:
    term = _term_from_text(args.term)
    try:
        values = tuple(int(v) for v in args.args)
    except ValueError:
        raise ValueError("arguments must be integers") from None
    report = evaluate_gates(term, values)
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
    config = _config_from_args(args)
    report = run_suite(args.suite, config, args.seed)
    print(json.dumps(report, indent=2))
    return EXIT_OK if report["ok"] else EXIT_FAIL


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    """Flags that evolve and verify both read; explicit flags win over the file."""
    parser.add_argument("--config", metavar="FILE", help="JSON config file")
    parser.add_argument("--dim", "-D", type=int, help=f"ring size (even, >= {MIN_DIM})")
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
    p.add_argument("klass", type=int, metavar="CLASS")
    p.add_argument("limit", type=int, nargs="?", default=50)
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
    p.add_argument("suite", choices=sorted(SUITES))
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
        return args.func(args)
    except (ProgramStepError, *_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        cause = exc.cause if isinstance(exc, ProgramStepError) else exc
        return next(_EXIT_CODES[t] for t in type(cause).__mro__ if t in _EXIT_CODES)


if __name__ == "__main__":
    sys.exit(main())
