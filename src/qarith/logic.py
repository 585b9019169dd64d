"""Boolean connectives realized as register arithmetic.

Truth values are the integers 0 and 1.  Negation is 1 - p, conjunction
is the product pq, disjunction is p + q - pq.  Each connective also has
a compiled gate form acting on basis states whose extra registers hold
the needed constants.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .gates import GateKind, GateProgram, GateStep, run_basis
from .states import Ket, basis_ket

OP_NAMES = ("not", "and", "or")


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


@dataclass(frozen=True)
class CompiledBoolOp:
    """Gate program computing a connective on basis-encoded truth values.

    The first ``arity`` registers hold the inputs; ``constants`` are the
    labels of the remaining registers in the initial state.  The value
    is read off ``result_register`` in the final state.
    """

    name: str
    arity: int
    constants: tuple[int, ...]
    program: GateProgram
    result_register: int

    @property
    def registers(self) -> int:
        return self.arity + len(self.constants)

    def initial_labels(self, *bits: int) -> tuple[int, ...]:
        if len(bits) != self.arity:
            raise ValueError(f"{self.name} takes {self.arity} input(s), got {len(bits)}")
        checked = tuple(_check_bit(b, f"input {i}") for i, b in enumerate(bits))
        return (*checked, *self.constants)

    def initial_state(self, *bits: int) -> Ket:
        return basis_ket(*self.initial_labels(*bits))


@lru_cache(maxsize=None)
def compiled_op(name: str) -> CompiledBoolOp:
    if name == "not":
        # (p, 1) -> (p, 1 - p)
        return CompiledBoolOp(
            name="not",
            arity=1,
            constants=(1,),
            program=GateProgram((GateStep(GateKind.MINUS, (0, 1)),)),
            result_register=1,
        )
    if name == "and":
        # (p, q, 0) -> (p, q, pq)
        return CompiledBoolOp(
            name="and",
            arity=2,
            constants=(0,),
            program=GateProgram((GateStep(GateKind.TIMES_REVERSIBLE, (0, 1, 2)),)),
            result_register=2,
        )
    if name == "or":
        # (p, q, 0) -> (p, q, pq) -> (p, p+q, pq) -> (p, p+q-pq, pq)
        return CompiledBoolOp(
            name="or",
            arity=2,
            constants=(0,),
            program=GateProgram(
                (
                    GateStep(GateKind.TIMES_REVERSIBLE, (0, 1, 2)),
                    GateStep(GateKind.PLUS, (0, 1)),
                    GateStep(GateKind.MINUS, (2, 1)),
                )
            ),
            result_register=1,
        )
    raise ValueError(f"unknown connective {name!r}; expected one of {OP_NAMES}")


def eval_with_gates(name: str, *bits: int) -> int:
    op = compiled_op(name)
    return run_basis(op.program, op.initial_labels(*bits))[op.result_register]


def eval_arithmetic(name: str, *bits: int) -> int:
    if name == "not":
        (p,) = bits
        return not_(p)
    if name == "and":
        p, q = bits
        return and_(p, q)
    if name == "or":
        p, q = bits
        return or_(p, q)
    raise ValueError(f"unknown connective {name!r}; expected one of {OP_NAMES}")


def truth_table(name: str) -> list[tuple[int, ...]]:
    """Rows of (inputs..., result) in lexicographic input order.

    Each result is computed both by arithmetic and by the compiled gate
    program; a row on which the two differ raises DisagreementError.
    """
    op = compiled_op(name)
    rows = []
    if op.arity == 1:
        inputs: list[tuple[int, ...]] = [(0,), (1,)]
    else:
        inputs = [(p, q) for p in (0, 1) for q in (0, 1)]
    for args in inputs:
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
