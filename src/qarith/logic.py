"""Boolean connectives realized as register arithmetic.

Truth values are the integers 0 and 1.  Negation is 1 - p, conjunction
is the product pq, disjunction is p + q - pq.  Each connective also
compiles to a ``gates.Circuit`` acting on basis states whose extra
register holds the needed constant.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable

from .gates import Circuit, GateKind, GateProgram, GateStep


class DisagreementError(RuntimeError):
    """The compiled gate program and the arithmetic give different values."""


def _check_bit(value: object, name: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool) or value not in (0, 1):
        raise ValueError(f"{name} must be 0 or 1, got {value!r}")
    return value


def not_(p: int) -> int:
    return 1 - _check_bit(p, "p")


def and_(p: int, q: int) -> int:
    return _check_bit(p, "p") * _check_bit(q, "q")


def or_(p: int, q: int) -> int:
    p = _check_bit(p, "p")
    q = _check_bit(q, "q")
    return p + q - p * q


# (p, q, 0) -> (p, q, pq)
_PRODUCT = GateStep(GateKind.TIMES_REVERSIBLE, (0, 1, 2))

# Each connective's arithmetic and its circuit on basis-encoded truth
# values: Circuit(program, arity, constants, result_register).
CONNECTIVES: dict[str, tuple[Callable[..., int], Circuit]] = {
    # (p, 1) -> (p, 1 - p)
    "not": (not_, Circuit(GateProgram((GateStep(GateKind.MINUS, (0, 1)),)), 1, (1,), 1)),
    "and": (and_, Circuit(GateProgram((_PRODUCT,)), 2, (0,), 2)),
    # (p, q, 0) -> (p, q, pq) -> (p, p+q, pq) -> (p, p+q-pq, pq)
    "or": (
        or_,
        Circuit(
            GateProgram((_PRODUCT, GateStep(GateKind.PLUS, (0, 1)), GateStep(GateKind.MINUS, (2, 1)))),
            2,
            (0,),
            1,
        ),
    ),
}

OP_NAMES = tuple(CONNECTIVES)


def _connective(name: str) -> tuple[Callable[..., int], Circuit]:
    if name not in CONNECTIVES:
        raise ValueError(f"unknown connective {name!r}; expected one of {OP_NAMES}")
    return CONNECTIVES[name]


def compiled_op(name: str) -> Circuit:
    return _connective(name)[1]


def eval_with_gates(name: str, *bits: int) -> int:
    circuit = compiled_op(name)
    return circuit.run(tuple(_check_bit(b, f"input {i}") for i, b in enumerate(bits)))


def eval_arithmetic(name: str, *bits: int) -> int:
    return _connective(name)[0](*bits)


def truth_table(name: str) -> list[tuple[int, ...]]:
    """Rows of (inputs..., result) in lexicographic input order.

    Each result is computed both by arithmetic and by the compiled gate
    program; a row on which the two differ raises DisagreementError.
    """
    rows = []
    for args in itertools.product((0, 1), repeat=compiled_op(name).arity):
        value = eval_arithmetic(name, *args)
        gate_value = eval_with_gates(name, *args)
        if gate_value != value:
            raise DisagreementError(
                f"{name}{args}: arithmetic gives {value}, gates give {gate_value}"
            )
        rows.append(args + (value,))
    return rows


def truth_table_text(name: str) -> str:
    op = compiled_op(name)
    header = ("p", "result") if op.arity == 1 else ("p", "q", "result")
    lines = ["  ".join(f"{h:<6}" for h in header).rstrip()]
    for row in truth_table(name):
        lines.append("  ".join(f"{v:<6}" for v in row).rstrip())
    return "\n".join(lines) + "\n"
